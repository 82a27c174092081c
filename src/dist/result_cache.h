// The trial store: content-addressed memoization of trial verdicts, and the
// only place campaigns persist them.
//
// The same strategy under the same campaign identity (implementation, seed,
// workload, topology, thresholds, fault plan — see campaign_identity_hash)
// always produces the same TrialRecord, because a trial is a pure function
// of (identity, canonical strategy key). The store remembers those records
// across campaigns *and* across process runs: a JSONL file where each line
// carries the identity hash, the record (core::write_json), and a content
// checksum. That makes it the campaign checkpoint too: an interrupted
// campaign re-run against the same file replays every stored verdict and
// simulates only the rest, reproducing the uninterrupted result.
//
// Safety properties (tested in dist_test.cpp):
//  - a View is pre-bound to one identity hash; entries stored under any
//    other identity can never hit, so changing any outcome-relevant config
//    field evicts the whole identity's entries from consideration;
//  - every line is checksummed over its identity + canonically re-rendered
//    record, so a tampered line (key swapped onto another verdict, edited
//    detection payload, wrong campaign hash pasted in) fails validation and
//    is dropped at load, counted in rejected();
//  - a hit replays the recorded verdict plus the recorded generator
//    feedback, so warm- and cold-cache campaigns produce equal
//    CampaignResults (the controller commits hits in dispatch order like
//    everything else);
//  - a store that cannot persist a record throws, so the controller counts
//    campaign.cache_errors and a resume knows which verdicts are missing.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "snake/backend.h"
#include "snake/journal.h"

namespace snake::dist {

/// The checksum construction cache lines are validated with: FNV-1a over a
/// 64-bit scope value bound to the *canonical* re-rendering of the record
/// (exact JSON round-tripping makes that sound). Cache lines use it with
/// scope = campaign identity; the wire protocol reuses it for per-result
/// integrity with scope = result seq, so a result can neither be corrupted
/// in flight nor replayed under another trial's seq without detection.
std::uint64_t scoped_record_checksum(std::uint64_t scope, const core::TrialRecord& record);

class ResultCache {
 public:
  /// In-memory cache (tests, or campaigns that only want intra-run reuse).
  ResultCache() = default;

  /// File-backed cache: load() reads `path` if it exists; every store()
  /// appends and flushes one line, throwing std::runtime_error when the
  /// open, write or flush fails. A killed writer leaves at most a torn final
  /// line: load() rejects it, and the next append starts on a fresh line.
  explicit ResultCache(std::string path) : path_(std::move(path)) {}

  /// Loads the backing file. Missing file = empty cache, returns true.
  /// Unreadable file returns false. Invalid lines are dropped, not fatal.
  bool load();

  /// Parses cache lines from text (exposed for tests; load() uses it).
  void ingest(std::string_view text);

  /// Entries that survived validation.
  std::size_t size() const { return entries_.size(); }
  /// Lines dropped for failing parse or checksum validation.
  std::uint64_t rejected() const { return rejected_; }

  /// Crash-safe rewrite of the backing file: re-validates every line,
  /// drops poisoned/torn/duplicate ones, writes the survivors canonically to
  /// `path + ".tmp"` and renames it over the original — a crash at any point
  /// leaves either the old file or the new one, never a mix. Call before
  /// load(); does not touch in-memory entries. No-op (ok=true) for
  /// memory-only caches and missing files.
  struct CompactStats {
    bool ok = false;
    std::size_t kept = 0;
    std::uint64_t dropped_invalid = 0;    ///< unparseable / failed checksum
    std::uint64_t dropped_duplicate = 0;  ///< later copies of a (identity, key)
  };
  CompactStats compact();

  /// The core::TrialCache the controller plugs in: lookups and stores are
  /// scoped to one campaign identity. The view borrows the cache; one view
  /// at a time per cache (the controller is single-threaded about it).
  class View : public core::TrialCache {
   public:
    View(ResultCache& cache, std::uint64_t identity) : cache_(&cache), identity_(identity) {}
    const core::TrialRecord* lookup(const std::string& key) override;
    void store(const core::TrialRecord& record) override;

   private:
    ResultCache* cache_;
    std::uint64_t identity_;
  };

  View view(std::uint64_t identity_hash) { return View(*this, identity_hash); }

  /// Renders one cache line (newline-terminated) for an entry; exposed so
  /// tests can construct well-formed and tampered lines.
  static std::string encode_line(std::uint64_t identity, const core::TrialRecord& record);

 private:
  friend class View;

  const core::TrialRecord* find(std::uint64_t identity, const std::string& key) const;
  void put(std::uint64_t identity, const core::TrialRecord& record);

  std::string path_;  ///< "" = memory-only
  std::map<std::pair<std::uint64_t, std::string>, core::TrialRecord> entries_;
  std::uint64_t rejected_ = 0;
  bool torn_tail_ = false;  ///< loaded file ends mid-line
};

}  // namespace snake::dist
