// Snapshot export plumbing shared by the bench and example binaries: every
// one of them accepts --telemetry-out=FILE (or the CONCORD_TELEMETRY_OUT
// environment variable) and writes the final TelemetrySnapshot as JSON, plus
// --trace-out= / --metrics-out= (CONCORD_TRACE_OUT / CONCORD_METRICS_OUT)
// for the scheduling-trace subsystem (src/trace, docs/tracing.md). All three
// flags parse through one helper so every binary behaves identically.

#ifndef CONCORD_SRC_TELEMETRY_EXPORT_H_
#define CONCORD_SRC_TELEMETRY_EXPORT_H_

#include <string>

#include "src/telemetry/telemetry.h"

namespace concord::telemetry {

// Generic output-destination helper: the value of `--<flag_prefix>FILE` when
// present in argv (first match wins), else the `env_var` environment
// variable, else "". `flag_prefix` must include the trailing '=' (e.g.
// "--telemetry-out=").
std::string OutPathFromFlagOrEnv(int argc, char** argv, const char* flag_prefix,
                                 const char* env_var);

// The export destination: the value of a `--telemetry-out=FILE` argument,
// else the CONCORD_TELEMETRY_OUT environment variable, else "".
std::string TelemetryOutPath(int argc, char** argv);

// `--trace-out=FILE` / CONCORD_TRACE_OUT: Chrome-trace destination.
std::string TraceOutPath(int argc, char** argv);

// `--metrics-out=FILE` / CONCORD_METRICS_OUT: windowed time-series JSON.
std::string MetricsOutPath(int argc, char** argv);

// `--metrics-window-ms=N` / CONCORD_METRICS_WINDOW_MS: sampler window length
// in milliseconds; returns `fallback` when unset or unparsable. The binaries
// start their sampler through trace::StartMetricsSampler, which reads it
// (the helper lives in src/trace because this library sits below it).
double MetricsWindowMs(int argc, char** argv, double fallback = 10.0);

// Generic integer flag/env helper on top of OutPathFromFlagOrEnv: parses the
// value of `--<flag_prefix>N` (else `env_var`) as a base-10 integer,
// returning `fallback` when unset or unparsable. `flag_prefix` may be null
// for environment-only lookups.
long long IntFromFlagOrEnv(int argc, char** argv, const char* flag_prefix, const char* env_var,
                           long long fallback);

// Per-shard variant of an output path: "out.json" -> "out.shard2.json" (the
// suffix is appended when the path has no extension). A single-shard run
// (shard_count == 1) keeps the path unchanged so existing consumers see the
// same file names.
std::string ShardedOutPath(const std::string& path, int shard, int shard_count);

// Writes `text` to `path` ("-" means stdout). Returns false (and logs to
// stderr, labelled with `what`) when the file cannot be written.
bool WriteTextFile(const std::string& text, const std::string& path, const char* what);

// Atomically replaces `path` with `text`: writes `path`.tmp then rename(2)s
// it over the destination, so a concurrent reader (Prometheus scraping the
// exposition file) never observes a torn document. "-" is not supported.
bool WriteTextFileAtomic(const std::string& text, const std::string& path, const char* what);

// Writes snapshot.ToJson() to `path` ("-" means stdout). Returns false (and
// logs to stderr) when the file cannot be written.
bool WriteSnapshotJson(const TelemetrySnapshot& snapshot, const std::string& path);

// Writes the snapshot to the configured destination, printing a one-line
// notice. No-op (returning true) when no destination is configured.
bool MaybeExportSnapshot(const TelemetrySnapshot& snapshot, int argc, char** argv);

}  // namespace concord::telemetry

#endif  // CONCORD_SRC_TELEMETRY_EXPORT_H_
