#include "db/txn_client.h"

#include <memory>

#include "common/serialize.h"
#include "sim/sync.h"
#include "tp/kinds.h"

namespace ods::db {

using sim::Task;

namespace {

// For a DP2 call that may wait on a record lock: the per-attempt timeout
// exceeds the DP2's lock-wait timeout so a lock-conflict verdict
// (kAborted) reaches the caller instead of an RPC retry.
nsk::CallOptions LockWaitCall() {
  nsk::CallOptions opts;
  opts.timeout = sim::Seconds(2);
  opts.max_attempts = 4;
  return opts;
}

}  // namespace

Task<Result<Transaction>> TxnClient::Begin() {
  auto r = co_await host_->Call(tmf_service_, tp::kTmfBegin, {});
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  Deserializer d(r->payload);
  Transaction txn;
  if (!d.GetU64(txn.id)) {
    co_return Status(ErrorCode::kInternal, "malformed begin reply");
  }
  co_return txn;
}

Task<Status> TxnClient::Insert(Transaction& txn, std::uint32_t file,
                               std::uint64_t key,
                               std::vector<std::byte> value) {
  const PartitionRoute& route = catalog_->Route(file, key);
  Serializer s;
  s.Reserve(8 + 4 + 8 + 4 + value.size());
  s.PutU64(txn.id);
  s.PutU32(file);
  s.PutU64(key);
  s.PutBlob(value);
  txn.dp2s.insert(route.dp2_service);
  txn.adps.insert(route.adp_service);
  auto r = co_await host_->Call(route.dp2_service, tp::kDp2Insert,
                                std::move(s).Take(), LockWaitCall());
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

Task<Status> TxnClient::InsertMany(Transaction& txn,
                                   std::vector<InsertOp> ops) {
  if (ops.empty()) co_return OkStatus();
  auto latch = std::make_shared<sim::Latch>(host_->sim(),
                                            static_cast<int>(ops.size()));
  auto first_error = std::make_shared<Status>();
  for (InsertOp& op : ops) {
    host_->SpawnFiber([](TxnClient& self, Transaction& t, InsertOp one,
                         std::shared_ptr<sim::Latch> done,
                         std::shared_ptr<Status> err) -> Task<void> {
      Status st = co_await self.Insert(t, one.file, one.key,
                                       std::move(one.value));
      if (!st.ok() && err->ok()) *err = st;
      done->Arrive();
    }(*this, txn, std::move(op), latch, first_error));
  }
  co_await latch->Wait(*host_);
  co_return *first_error;
}

Task<Result<std::vector<std::byte>>> TxnClient::Read(Transaction& txn,
                                                     std::uint32_t file,
                                                     std::uint64_t key) {
  const PartitionRoute& route = catalog_->Route(file, key);
  Serializer s;
  s.PutU64(txn.id);
  s.PutU32(file);
  s.PutU64(key);
  txn.dp2s.insert(route.dp2_service);
  auto r = co_await host_->Call(route.dp2_service, tp::kDp2Read,
                                std::move(s).Take(), LockWaitCall());
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  co_return std::move(r->payload);
}

Task<Result<TxnClient::ScanResult>> TxnClient::Scan(Transaction& txn,
                                                    std::uint32_t file,
                                                    std::uint64_t lo,
                                                    std::uint64_t hi) {
  ScanResult total;
  const int parts = catalog_->partitions_per_file();
  for (int p = 0; p < parts; ++p) {
    const std::string dp2 = Catalog::Dp2Name(static_cast<int>(file), p);
    Serializer s;
    s.PutU64(txn.id);
    s.PutU32(file);
    s.PutU64(lo);
    s.PutU64(hi);
    txn.dp2s.insert(dp2);
    // A scan may queue behind many record locks; no retries — a replayed
    // scan would re-wait the whole chain on a server that is still alive.
    nsk::CallOptions opts;
    opts.timeout = sim::Seconds(30);
    opts.max_attempts = 1;
    auto r = co_await host_->Call(dp2, tp::kDp2Scan, std::move(s).Take(),
                                  opts);
    if (!r.ok()) co_return r.status();
    if (!r->status.ok()) co_return r->status;
    Deserializer d(r->payload);
    std::uint32_t count = 0;
    std::uint64_t bytes = 0;
    if (!d.GetU32(count) || !d.GetU64(bytes)) {
      co_return Status(ErrorCode::kInternal, "malformed scan reply");
    }
    total.records += count;
    total.bytes += bytes;
  }
  co_return total;
}

std::vector<std::byte> TxnClient::ParticipantPayload(
    const Transaction& txn) const {
  Serializer s;
  s.PutU64(txn.id);
  s.PutU32(static_cast<std::uint32_t>(txn.adps.size()));
  for (const std::string& a : txn.adps) s.PutString(a);
  s.PutU32(static_cast<std::uint32_t>(txn.dp2s.size()));
  for (const std::string& p : txn.dp2s) s.PutString(p);
  return s.bytes();
}

Task<Status> TxnClient::Commit(Transaction& txn) {
  nsk::CallOptions opts;
  opts.timeout = sim::Seconds(5);  // a disk flush behind a queue is slow
  auto r = co_await host_->Call(tmf_service_, tp::kTmfCommit,
                                ParticipantPayload(txn), opts);
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

Task<Status> TxnClient::Abort(Transaction& txn) {
  nsk::CallOptions opts;
  opts.timeout = sim::Seconds(5);
  auto r = co_await host_->Call(tmf_service_, tp::kTmfAbort,
                                ParticipantPayload(txn), opts);
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

}  // namespace ods::db
