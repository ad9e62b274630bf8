// Crash-safe sweep checkpoints: an append-only, line-oriented journal
// with per-record FNV-1a guards, created via write-temp + atomic rename.
//
// A checkpoint file is plain text:
//
//   # samie-sweep-checkpoint v1
//   H <fnv64> <njobs> <fingerprint>
//   R <fnv64> <payload>
//   Q <fnv64> <payload>
//   ...
//
// (fields are TAB-separated; <fnv64> is the FNV-1a 64 hash, in hex, of
// everything after it on the line). The header binds the journal to one
// sweep: `njobs` and a caller-computed `fingerprint` of the job list
// must match on resume, so a checkpoint can never silently graft results
// from a different sweep. Records are appended — flushed and fsync'd —
// one per completed job, so a crash or OOM kill loses at most the job
// that was in flight; a torn final line (its newline missing, or its FNV
// guard failing) is ignored on load. 'R' lines are results; 'Q' lines
// are quarantine records (the process-isolated executor journals jobs
// that crashed a child, so a resume never re-runs a known-poison job);
// 'D' lines are trace-damage records (jobs whose replay range touched
// corrupt trace blocks — deterministic, so a resume seals rather than
// retries them). Payload contents are the caller's (the sweep scheduler,
// its only client, journals job outcomes); this module only guarantees
// integrity and atomicity.
//
// The guarded line is also the wire format between a forked child and
// the sweep that forked it (guarded_line / parse_guarded_line): a child
// answers with one line, an 'R' line carrying the serialize_sim_result
// text exactly as the journal does, or a line naming its failure.
//
// Durability covers the *directory entry* too: creation fsyncs the
// journal's parent directory after the atomic tmp+rename (a machine
// crash cannot forget the rename), and the writer fsyncs it again when
// it closes.
//
// Format details and invariants: docs/SWEEP_ROBUSTNESS.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulator.h"

namespace samie::sim {

/// Any malformed or mismatched checkpoint file: missing magic, torn
/// header, njobs/fingerprint mismatch surfaced by callers.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends guarded records to a checkpoint journal. Each append is
/// flushed and fsync'd before returning: once `append_record` returns,
/// the record survives a process kill.
class CheckpointWriter {
 public:
  /// Starts a fresh journal: magic + header are written to `path.tmp`,
  /// fsync'd, and renamed over `path` (atomic on POSIX), so a crash
  /// during creation can never leave a half-written header behind.
  [[nodiscard]] static CheckpointWriter create(const std::string& path,
                                               std::uint64_t njobs,
                                               std::uint64_t fingerprint);
  /// Reopens an existing journal for appending (resume). The caller is
  /// expected to have validated it with load_checkpoint first. A torn
  /// final line (an append cut short: no newline) is cut off, so the
  /// first append starts a line of its own.
  [[nodiscard]] static CheckpointWriter append_to(const std::string& path);

  CheckpointWriter(CheckpointWriter&& other) noexcept;
  CheckpointWriter& operator=(CheckpointWriter&& other) noexcept;
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;
  ~CheckpointWriter();

  /// Appends one guarded record line. `payload` must not contain '\n'.
  /// Throws CheckpointError on I/O failure.
  void append_record(const std::string& payload);

  /// Appends one guarded quarantine line (a job whose child process
  /// crashed: resume must skip it, not re-run it).
  void append_quarantine(const std::string& payload);

  /// Appends one guarded trace-damage line (a job whose replay range
  /// touched corrupt trace blocks: deterministic, resume must not
  /// re-run it). Old readers count 'D' lines as ignored_lines and keep
  /// working — the journal stays backward readable.
  void append_damaged(const std::string& payload);

  /// Flushes, fsyncs the file and its parent directory, and closes.
  /// Idempotent; the destructor calls it best-effort (errors swallowed).
  void close() noexcept;

 private:
  explicit CheckpointWriter(std::string path, std::FILE* f)
      : path_(std::move(path)), file_(f) {}

  void append_line(char type, const std::string& payload);

  std::string path_;
  std::FILE* file_ = nullptr;
};

struct CheckpointContents {
  std::uint64_t njobs = 0;
  std::uint64_t fingerprint = 0;
  /// Validated record payloads, in journal (completion) order.
  std::vector<std::string> records;
  /// Validated quarantine payloads ('Q' lines), in journal order.
  std::vector<std::string> quarantined;
  /// Validated trace-damage payloads ('D' lines), in journal order.
  std::vector<std::string> damaged;
  /// Lines whose FNV guard failed (a torn tail after a kill) — ignored,
  /// but counted so tools can report that the journal was truncated.
  std::size_t ignored_lines = 0;
};

/// Loads and validates a journal. Throws CheckpointError when the file
/// cannot be opened or its magic/header is missing or corrupt; torn
/// record lines are skipped and counted, never fatal.
[[nodiscard]] CheckpointContents load_checkpoint(const std::string& path);

/// One guarded line, newline included: "TYPE\t<fnv64>\t<payload>\n".
/// `payload` must not contain '\n'.
[[nodiscard]] std::string guarded_line(char type, std::string_view payload);

/// The payload of `line`, which must be exactly one guarded_line of
/// `type`, newline included; nullopt when the line is of another type,
/// cut short anywhere (the newline goes last), has bytes after its
/// newline or fails its guard.
[[nodiscard]] std::optional<std::string> parse_guarded_line(
    std::string_view line, char type);

// -- SimResult round-trip ----------------------------------------------------
// Bit-exact text serialization shared by the sweep journal and the
// forked child's answer: integers in decimal, doubles as C99
// hexfloats ("%a"), space-separated in a fixed field order. A resumed
// sweep reconstructs the exact SimResult bits, so its CSV/JSON output is
// byte-identical to an uninterrupted run's. Both directions walk one
// field list (for_each_field in checkpoint.cpp): 38 scalar fields, then
// the 24 raw ledger counts of SimResult::ledgers.

/// Space-separated field list, one token per field.
[[nodiscard]] std::string serialize_sim_result(const SimResult& r);

/// Parses serialize_sim_result output. Returns false unless `text` holds
/// exactly one parseable token per field, so a line from a build with a
/// different field count parses as torn instead of silently
/// misassigning fields (the caller re-runs its job).
[[nodiscard]] bool parse_sim_result(const std::string& text, SimResult& out);

}  // namespace samie::sim
