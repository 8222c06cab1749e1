#include "workload/history.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "workload/rig.h"

namespace ods::workload {

namespace {

using sim::Seconds;
using sim::Task;

// Where the liveness probe writes: file 0, at the highest key at or below
// this that no recorded transaction wrote — clear of every workload's
// keyspace.
constexpr std::uint64_t kProbeKey = 1ull << 62;
// Sim-time budget for the checker before Check reports it stalled.
constexpr int kCheckerBudgetSeconds = 600;

std::string KeyName(std::uint32_t file, std::uint64_t key) {
  return "file " + std::to_string(file) + " key " + std::to_string(key);
}

// A read that is neither the expected value nor an absence.
std::string ReadName(const Result<std::vector<std::byte>>& v) {
  return v.ok() ? "other contents" : v.status().ToString();
}

// What the checker process saw. Shared with it: a stalled checker
// outlives the Check call that gave up on it.
struct Readback {
  std::vector<Result<std::vector<std::byte>>> values;  // one per key read
  std::vector<std::string> liveness;                   // violations
  bool done = false;
};

// Reads `keys` in one transaction (retrying Begin while recovery
// settles), commits it, then inserts and commits `probe` on file 0.
Task<void> ReadBack(nsk::AppProcess& self, const db::Catalog& catalog,
                    std::vector<std::pair<std::uint32_t, std::uint64_t>> keys,
                    std::uint64_t probe, std::shared_ptr<Readback> out) {
  db::TxnClient client(self, catalog);
  db::Transaction txn;
  for (int attempt = 0; attempt < 10 && !txn.valid(); ++attempt) {
    auto r = co_await client.Begin();
    if (r.ok()) {
      txn = std::move(*r);
    } else {
      co_await self.Sleep(Seconds(1));
    }
  }
  if (!txn.valid()) {
    out->liveness.push_back("liveness: Begin never succeeded after recovery");
    out->done = true;
    co_return;
  }
  for (const auto& [file, key] : keys) {
    out->values.push_back(co_await client.Read(txn, file, key));
  }
  Status st = co_await client.Commit(txn);
  if (!st.ok()) {
    out->liveness.push_back("liveness: read commit failed: " + st.ToString());
  }
  auto fresh = co_await client.Begin();
  st = fresh.status();
  if (st.ok()) {
    st = co_await client.Insert(*fresh, 0, probe,
                                std::vector<std::byte>(64, std::byte{0x5A}));
  }
  if (st.ok()) st = co_await client.Commit(*fresh);
  if (!st.ok()) {
    out->liveness.push_back("liveness: probe commit failed: " + st.ToString());
  }
  out->done = true;
}

}  // namespace

std::size_t History::Begin() {
  outcomes_.push_back(Outcome::kAborted);
  return outcomes_.size() - 1;
}

void History::Write(std::size_t t, std::uint32_t file, std::uint64_t key,
                    std::vector<std::byte> value) {
  writes_.push_back(Record{t, file, key, std::move(value)});
}

Task<Status> History::Commit(std::size_t t, db::TxnClient& client,
                             db::Transaction& txn) {
  outcomes_.at(t) = Outcome::kInDoubt;
  Status st = co_await client.Commit(txn);
  if (st.ok()) {
    outcomes_.at(t) = Outcome::kAcked;
  } else if (st.code() == ErrorCode::kAborted) {
    outcomes_.at(t) = Outcome::kAborted;
  }
  co_return st;
}

std::size_t History::acked() const {
  return static_cast<std::size_t>(
      std::count(outcomes_.begin(), outcomes_.end(), Outcome::kAcked));
}

std::vector<std::string> History::Check(Rig& rig) const {
  // Each key's last write, and whether another transaction wrote it too.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::pair<std::size_t, bool>>
      last;
  for (std::size_t i = 0; i < writes_.size(); ++i) {
    const Record& w = writes_[i];
    auto [it, fresh] = last.try_emplace({w.file, w.key}, i, false);
    if (fresh) continue;
    it->second.second |= writes_[it->second.first].txn != w.txn;
    it->second.first = i;
  }
  // The history as it stands now: a driver still running while the
  // checker reads may record more, and that is not checked.
  struct Checked {
    Outcome outcome;
    Record write;
  };
  std::vector<Checked> checked;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> keys;
  for (const auto& [key, w] : last) {
    const Record& write = writes_[w.first];
    const Outcome outcome = outcomes_[write.txn];
    if (w.second && outcome != Outcome::kAcked) {
      continue;  // an earlier writer's outcome could decide the value
    }
    checked.push_back(Checked{outcome, write});
    keys.push_back(key);
  }
  std::uint64_t probe = kProbeKey;
  while (last.contains({0, probe})) --probe;

  auto out = std::make_shared<Readback>();
  sim::Simulation& sim = rig.sim();
  sim.Adopt<nsk::AppProcess>(
      rig.cluster(), rig.config().num_cpus - 1, "checker",
      [&catalog = rig.catalog(), keys = std::move(keys), probe,
       out](nsk::AppProcess& self) {
        return ReadBack(self, catalog, keys, probe, out);
      });
  for (int s = 0; s < kCheckerBudgetSeconds && !out->done; ++s) {
    sim.RunFor(Seconds(1));
  }
  if (!out->done) return {"checker stalled"};

  std::vector<std::string> violations = out->liveness;
  // In-doubt transactions: {keys showing their value, keys read}.
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> in_doubt;
  for (std::size_t i = 0; i < out->values.size(); ++i) {
    const auto& [outcome, w] = checked[i];
    const Result<std::vector<std::byte>>& v = out->values[i];
    const std::string name = KeyName(w.file, w.key);
    // Only these two reads say a key is absent: no record, or a lock a
    // still-open writer holds (a DP2 lock timeout). Any other error, or
    // other bytes, is neither the value nor its absence.
    const bool absent =
        !v.ok() && (v.status().code() == ErrorCode::kNotFound ||
                    v.status().code() == ErrorCode::kAborted);
    const bool shows = v.ok() && *v == w.value;
    switch (outcome) {
      case Outcome::kAcked:
        if (!v.ok()) {
          violations.push_back("acked write lost: " + name + ": " +
                               v.status().ToString());
        } else if (!shows) {
          violations.push_back("acked write corrupt: " + name);
        }
        break;
      case Outcome::kAborted:
        if (shows) {
          violations.push_back("aborted write visible: " + name);
        } else if (!absent) {
          violations.push_back("aborted write's key neither absent nor "
                               "written: " + name + ": " + ReadName(v));
        }
        break;
      case Outcome::kInDoubt:
        if (!shows && !absent) {
          violations.push_back("in-doubt write's key neither absent nor "
                               "written: " + name + ": " + ReadName(v));
          break;
        }
        in_doubt[w.txn].first += shows ? 1 : 0;
        ++in_doubt[w.txn].second;
        break;
    }
  }
  for (const auto& [t, counts] : in_doubt) {
    if (counts.first != 0 && counts.first != counts.second) {
      violations.push_back("torn transaction: in-doubt txn " +
                           std::to_string(t) + " shows " +
                           std::to_string(counts.first) + " of " +
                           std::to_string(counts.second) + " keys");
    }
  }
  return violations;
}

}  // namespace ods::workload
