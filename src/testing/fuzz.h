// Deterministic mutation-based fuzzing helpers for the codec/parser layer.
//
// Everything here is seeded: a (seed, corpus) pair expands into the same
// mutant every run, so a crash found in CI is replayable locally from the
// printed seed. Targets are the repo's untrusted-input surfaces — the packet
// codec and header-format DSL, the JSON parser behind reports, and the
// trial store's line parser — and the suite asserts no-crash/no-UB (under the
// CI sanitizer jobs) plus round-trip identity where a codec promises one.
//
// The regression corpus in tests/corpus/ holds previously fuzz-found inputs;
// load_corpus feeds them back verbatim on every run and as mutation seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace snake::testing {

/// One corpus file: name (for failure messages) and raw contents.
struct CorpusFile {
  std::string name;
  std::string contents;
};

/// Reads every regular file in `dir`, sorted by name for determinism.
/// Returns an empty vector when the directory is missing.
std::vector<CorpusFile> load_corpus(const std::string& dir);

/// Produces a mutant of `seed_bytes`: bit flips, byte rewrites, insertions,
/// erasures, duplicated spans, truncation. Result length is capped at
/// `max_len`.
Bytes mutate_bytes(snake::Rng& rng, const Bytes& seed_bytes, std::size_t max_len = 2048);

/// Text-shaped mutation: the byte mutations above plus structural tokens
/// ({} [] " \ digits) that stress parsers harder than uniform noise.
std::string mutate_text(snake::Rng& rng, const std::string& seed_text,
                        std::size_t max_len = 8192);

}  // namespace snake::testing
