// Client-side transaction API. A TxnClient runs on behalf of one
// application process (a benchmark driver, an example app) and speaks to
// the TMF and the DP2 partitions via the catalog. It tracks which
// partitions and audit trails a transaction touched so commit can name
// its participants.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "db/catalog.h"
#include "nsk/process.h"
#include "tp/kinds.h"

namespace ods::db {

struct Transaction {
  std::uint64_t id = 0;
  std::set<std::string> dp2s;
  std::set<std::string> adps;
  [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

class TxnClient {
 public:
  TxnClient(nsk::NskProcess& host, const Catalog& catalog,
            std::string tmf_service = tp::kTmfService)
      : host_(&host), catalog_(&catalog),
        tmf_service_(std::move(tmf_service)) {}

  sim::Task<Result<Transaction>> Begin();

  // Single insert/update within `txn` (synchronous).
  sim::Task<Status> Insert(Transaction& txn, std::uint32_t file,
                           std::uint64_t key, std::vector<std::byte> value);

  // Fans out many inserts concurrently ("during each transaction each
  // driver performs a number of asynchronous inserts into each file",
  // §4.3) and waits for all acks. Returns the first failure.
  struct InsertOp {
    std::uint32_t file;
    std::uint64_t key;
    std::vector<std::byte> value;
  };
  sim::Task<Status> InsertMany(Transaction& txn, std::vector<InsertOp> ops);

  sim::Task<Result<std::vector<std::byte>>> Read(Transaction& txn,
                                                 std::uint32_t file,
                                                 std::uint64_t key);

  // Shared-lock range scan over [lo, hi] of `file`, visiting every
  // partition in turn. Locks accumulate until the transaction resolves
  // (strict 2PL), which is what makes a long scan interfere with commit
  // traffic.
  struct ScanResult {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
  };
  sim::Task<Result<ScanResult>> Scan(Transaction& txn, std::uint32_t file,
                                     std::uint64_t lo, std::uint64_t hi);

  sim::Task<Status> Commit(Transaction& txn);
  sim::Task<Status> Abort(Transaction& txn);

 private:
  [[nodiscard]] std::vector<std::byte> ParticipantPayload(
      const Transaction& txn) const;

  nsk::NskProcess* host_;
  const Catalog* catalog_;
  std::string tmf_service_;
};

}  // namespace ods::db
