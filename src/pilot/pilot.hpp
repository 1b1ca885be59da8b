// pilot.hpp — the public Pilot API.
//
// This is the reproduction's `pilot.h`: the process/channel programming
// interface described in Carter, Gardner & Grewal, "The Pilot approach to
// cluster programming in C" (PDSEC'10), which the CellPilot paper extends.
// The names, call shapes and two-phase model follow the paper:
//
//   int main(int argc, char** argv) {            // runs on EVERY rank
//     int n = PI_Configure(&argc, &argv);        // configuration phase
//     PI_PROCESS* w = PI_CreateProcess(worker, 0, NULL);
//     PI_CHANNEL* c = PI_CreateChannel(PI_MAIN, w);
//     PI_StartAll();                             // execution phase begins
//     PI_Write(c, "%d %100f", n, data);          // only PI_MAIN gets here
//     PI_StopMain(0);
//     return 0;
//   }
//
// PI_Write/PI_Read/PI_Broadcast/PI_Gather are macros capturing __FILE__ /
// __LINE__, so that misuse diagnostics point at the offending source line —
// one of Pilot's signature features.
//
// SPE processes (PI_CreateSPE / PI_RunSPE / PI_SPE_PROGRAM) are declared in
// core/cellpilot.hpp, which includes this header.
#pragma once

#include <cstdarg>

#include "pilot/errors.hpp"
#include "pilot/tables.hpp"

/// Error codes a peer observes when an SPE process dies instead of
/// completing a transfer (see DESIGN.md, "Fault model & recovery").  A
/// PI_Read/PI_Write on a channel whose SPE peer suffered a hardware fault
/// throws PilotError with PI_SPE_FAULT; one whose peer missed its Co-Pilot
/// deadline throws PI_SPE_TIMEOUT.
inline constexpr pilot::ErrorCode PI_SPE_FAULT = pilot::ErrorCode::kSpeFault;
inline constexpr pilot::ErrorCode PI_SPE_TIMEOUT =
    pilot::ErrorCode::kSpeTimeout;
/// A request whose serving Co-Pilot crashed and could not be replayed by
/// the standby throws PI_COPILOT_FAULT instead of hanging.
inline constexpr pilot::ErrorCode PI_COPILOT_FAULT =
    pilot::ErrorCode::kCopilotFault;
/// With `-pirespawn` armed, an op that was pending against an SPE
/// incarnation that died and was respawned — and that the supervisor could
/// not transparently replay against the new incarnation — settles with
/// PI_SPE_RESTARTED (see docs/PROTOCOL.md "Self-healing & channel epochs").
inline constexpr pilot::ErrorCode PI_SPE_RESTARTED =
    pilot::ErrorCode::kSpeRestarted;

/// Enters the configuration phase.  Parses and strips Pilot options from the
/// command line (`-pisvc=d` enables deadlock detection).  Returns the number
/// of Pilot processes the job provides (= MPI ranks requested from mpirun).
int PI_Configure(int* argc, char*** argv);

/// The main process (process 0, MPI rank 0).  Usable wherever a PI_PROCESS*
/// is expected.
PI_PROCESS* PI_GetMain(void);
#define PI_MAIN PI_GetMain()

/// Creates a process that will run `f(index, arg)` in the execution phase.
/// Configuration phase only.
PI_PROCESS* PI_CreateProcess(pilot::ProcessFunc f, int index, void* arg);

/// Creates a channel carrying messages from `from` to `to`.
/// Configuration phase only.
PI_CHANNEL* PI_CreateChannel(PI_PROCESS* from, PI_PROCESS* to);

/// Groups channels sharing a common endpoint for collective use.
/// Configuration phase only.  The common endpoint must be rank-backed;
/// SPE processes may appear as the non-common endpoints (an extension —
/// the paper lists SPE collectives as future work).
PI_BUNDLE* PI_CreateBundle(PI_BUNDLE_USAGE usage,
                           PI_CHANNEL* const channels[], int count);

/// Ends the configuration phase.  On PI_MAIN it returns and main()
/// continues; on every other process it runs the associated work function
/// and never returns (the real library exits there; this implementation
/// unwinds the rank thread).
void PI_StartAll(void);

/// Writes values described by `fmt` to a channel (see pilot/format.hpp for
/// the format language).  Blocking; callable from the channel's writer only.
void PI_Write_(const char* file, int line, PI_CHANNEL* ch, const char* fmt,
               ...);

/// Reads values described by `fmt` from a channel into pointer arguments.
/// Blocking; callable from the channel's reader only.
void PI_Read_(const char* file, int line, PI_CHANNEL* ch, const char* fmt,
              ...);

/// Broadcasts one message over every channel of a PI_BROADCAST bundle.
/// Called by the common (writing) process only; each receiver does a
/// plain PI_Read on its own channel — Pilot's MPMD convention.
void PI_Broadcast_(const char* file, int line, PI_BUNDLE* b, const char* fmt,
                   ...);

/// Gathers one contribution per channel of a PI_GATHER bundle into arrays.
/// Called by the common (reading) process; each contributor does a plain
/// PI_Write.  Each destination array holds size-many contributions.
void PI_Gather_(const char* file, int line, PI_BUNDLE* b, const char* fmt,
                ...);

#define PI_Write(ch, ...) PI_Write_(__FILE__, __LINE__, ch, __VA_ARGS__)
#define PI_Read(ch, ...) PI_Read_(__FILE__, __LINE__, ch, __VA_ARGS__)
#define PI_Broadcast(b, ...) PI_Broadcast_(__FILE__, __LINE__, b, __VA_ARGS__)
#define PI_Gather(b, ...) PI_Gather_(__FILE__, __LINE__, b, __VA_ARGS__)

/// Blocks until some channel of a PI_SELECT bundle has data; returns its
/// index within the bundle.
int PI_Select(PI_BUNDLE* b);

/// Non-blocking select: index of a ready channel, or -1.  A channel whose
/// writer already died (with nothing left on the wire) counts as ready:
/// the returned index lets the caller's PI_Read surface the failure.
int PI_TrySelect(PI_BUNDLE* b);

// --- asynchronous tier ------------------------------------------------------
//
// PI_WriteAsync / PI_ReadAsync are the split form of PI_Write / PI_Read:
// the call returns as soon as the operation is submitted to the completion
// engine, handing back a waitable PI_HANDLE.  The caller computes while the
// transfer proceeds, then harvests with PI_Wait (blocking), PI_Test
// (polling) or PI_WaitAny (first of a set).  Handle lifecycle:
//
//   submit -> (in flight) -> settle (complete | faulted) -> harvest
//
// Harvesting retires the handle: a read's destinations are filled exactly
// then (the pointers passed to PI_ReadAsync must stay valid until harvest),
// a faulted operation throws its peer's failure (PI_SPE_FAULT / ...), and
// the handle becomes invalid — a second wait is a usage error.  Handles
// must be harvested by the thread that submitted them (the same rule MPI
// requests live by).  An SPE program may keep at most 4 operations in
// flight (the inbound-mailbox depth); a fifth submission is a usage error.

typedef struct PI_OP PI_OP;
/// Waitable handle for an asynchronous operation.
typedef PI_OP* PI_HANDLE;

/// Submits an asynchronous write; the payload is captured (marshalled) at
/// submission, so the arguments may be reused immediately.
PI_HANDLE PI_WriteAsync_(const char* file, int line, PI_CHANNEL* ch,
                         const char* fmt, ...);

/// Submits an asynchronous read; the destination pointers are captured and
/// filled at harvest time.
PI_HANDLE PI_ReadAsync_(const char* file, int line, PI_CHANNEL* ch,
                        const char* fmt, ...);

#define PI_WriteAsync(ch, ...) \
  PI_WriteAsync_(__FILE__, __LINE__, ch, __VA_ARGS__)
#define PI_ReadAsync(ch, ...) PI_ReadAsync_(__FILE__, __LINE__, ch, __VA_ARGS__)

/// Blocks until `h` settles, harvests it, and retires the handle.  Throws
/// the peer's failure when the operation faulted.
void PI_Wait_(const char* file, int line, PI_HANDLE h);

/// Polls `h`: returns 0 while the operation is still in flight; on settle
/// harvests like PI_Wait and returns 1 (or throws the recorded fault).
int PI_Test_(const char* file, int line, PI_HANDLE h);

/// Blocks until one of `handles[0..count-1]` settles, harvests that one
/// (like PI_Wait, including the fault throw) and returns its index.  The
/// remaining handles stay live.
int PI_WaitAny_(const char* file, int line, PI_HANDLE* handles, int count);

/// Generalized select over a PI_SELECT bundle *and* a handle set (either
/// may be empty: pass NULL/0).  Returns the index of a ready bundle
/// channel (0 .. PI_GetBundleSize(b)-1) or bundle_size + i when
/// handles[i] has settled.  A settled handle is NOT harvested — follow up
/// with PI_Wait.  Rank-side only (bundles are rank-side constructs).
int PI_SelectAny_(const char* file, int line, PI_BUNDLE* b,
                  PI_HANDLE* handles, int count);

#define PI_Wait(h) PI_Wait_(__FILE__, __LINE__, h)
#define PI_Test(h) PI_Test_(__FILE__, __LINE__, h)
#define PI_WaitAny(handles, count) \
  PI_WaitAny_(__FILE__, __LINE__, handles, count)
#define PI_SelectAny(b, handles, count) \
  PI_SelectAny_(__FILE__, __LINE__, b, handles, count)

/// 1 when a read on the channel would not block, else 0.
int PI_ChannelHasData(PI_CHANNEL* ch);

/// Duplicates `count` channels (same endpoints, fresh ids/tags), so the
/// same process pairs can carry a second independent stream — e.g. one
/// bundle for requests and a copy for replies.  Configuration phase only.
/// The returned array is owned by the library for the run's lifetime.
PI_CHANNEL** PI_CopyChannels(PI_CHANNEL* const channels[], int count);

/// The i-th channel of a bundle.
PI_CHANNEL* PI_GetBundleChannel(PI_BUNDLE* b, int index);

/// Number of channels in a bundle.
int PI_GetBundleSize(PI_BUNDLE* b);

/// Ends the execution phase on PI_MAIN: waits for all processes (and SPE
/// threads), tears down services, returns `status`.
int PI_StopMain(int status);

/// Aggregated per-channel communication totals, collected since route
/// compilation (PI_StartAll) by the always-on trace counters.
typedef struct PI_CHANNEL_STATS {
  int channel;                       ///< channel id
  int route_type;                    ///< Table I type 1..5 (0 if unrouted)
  unsigned long long messages;       ///< completed writes
  unsigned long long payload_bytes;  ///< marshalled payload bytes written
  unsigned long long copilot_hops;   ///< Co-Pilot legs (relay/pair/deliver)
  unsigned long long retries;        ///< deadline extensions granted
  unsigned long long timeouts;       ///< requests completed PI_SPE_TIMEOUT
  /// Channel poisonings — unrecovered SPE deaths only.  A death absorbed
  /// by a supervised respawn (`-pirespawn`) is counted in `respawns`, not
  /// here: the channel kept flowing under a new writer epoch.
  unsigned long long faults;
  unsigned long long retransmits;    ///< reliable-layer frame retransmissions
  unsigned long long duplicates;     ///< duplicate frames window-suppressed
  unsigned long long corrupt_detected;  ///< CRC-caught damaged frames
  unsigned long long respawns;       ///< writer deaths absorbed by respawn
  unsigned long long recovered_ops;  ///< ops replayed/deduped across respawns
  unsigned long long checkpoints;    ///< committed coordinated cuts covering
                                     ///< this channel (-pickpt=)
  unsigned long long restores;       ///< blade restores that replayed this
                                     ///< channel from a checkpoint
} PI_CHANNEL_STATS;

/// Harvest-contract violation: a stats/metrics call was made before
/// PI_StartAll compiled the routes, so there is nothing to read yet.
/// (Distinct from 0 = success; null arguments still throw kUsage.)
#define PI_ERR_PHASE (-2)

/// Fills `out` with the channel's totals.  Rank-side, execution phase (or
/// later — PI_MAIN may harvest after PI_StopMain).  Returns 0 on success,
/// PI_ERR_PHASE when called before PI_StartAll.
int PI_GetChannelStats(PI_CHANNEL* ch, PI_CHANNEL_STATS* out);

/// One aggregated histogram read-out from the metrics layer
/// (`-pimetrics=FILE` / `CELLPILOT_METRICS`); all values in virtual ns.
typedef struct PI_METRIC_STAT {
  unsigned long long count;   ///< samples recorded
  unsigned long long sum_ns;  ///< exact sum of all samples
  long long min_ns;           ///< smallest sample (0 when empty)
  long long p50_ns;           ///< nearest-rank percentiles (log-bucketed,
  long long p90_ns;           ///< <= ~3% relative error, clamped into
  long long p99_ns;           ///< [min_ns, max_ns])
  long long max_ns;           ///< largest sample (0 when empty)
} PI_METRIC_STAT;

/// Per-route-type metrics snapshot.  Index 1..5 is the Table I route
/// type; index 0 aggregates all routed traffic.
typedef struct PI_METRICS_SNAPSHOT {
  PI_METRIC_STAT msg_latency[6];  ///< end-to-end write-begin -> read-end
  PI_METRIC_STAT read_block[6];   ///< PI_Read / spe_read blocking time
} PI_METRICS_SNAPSHOT;

/// Fills `out` from the live metrics registry.  Rank-side, execution
/// phase or later; same harvest contract as PI_GetChannelStats — totals
/// are only complete after PI_StopMain returns.  All zeros when the
/// metrics layer is disarmed.  Returns 0 on success, PI_ERR_PHASE when
/// called before PI_StartAll.
int PI_GetMetricsSnapshot(PI_METRICS_SNAPSHOT* out);

/// One aggregated read-out from the windowed telemetry layer
/// (`-pitelemetry=FILE` / `CELLPILOT_TELEMETRY`), rolled up across all
/// series and windows of one telemetry kind.
typedef struct PI_TELEMETRY_STAT {
  unsigned long long windows;  ///< populated (series, window) cells
  unsigned long long count;    ///< samples recorded across all windows
  long long sum;               ///< exact sum of all samples
  long long min;               ///< smallest sample (0 when empty)
  long long max;               ///< largest sample (0 when empty)
} PI_TELEMETRY_STAT;

/// Number of telemetry kinds; indexes into PI_TELEMETRY_SNAPSHOT::kinds in
/// the engine's canonical order: 0 mailbox_depth, 1 pending_ops,
/// 2 spe_pool_busy, 3 net_window, 4 net_stash, 5 journal_len,
/// 6 parked_ops, 7 service_busy, 8 delivered, 9 sent, 10 retransmits,
/// 11 respawns.
#define PI_TELEMETRY_KIND_COUNT 12

/// Whole-registry telemetry snapshot: one rollup per kind plus the
/// virtual-time window the series are bucketed to (-pitelemetryevery=US).
typedef struct PI_TELEMETRY_SNAPSHOT {
  long long window_ns;  ///< bucketing window in virtual ns
  PI_TELEMETRY_STAT kinds[PI_TELEMETRY_KIND_COUNT];
} PI_TELEMETRY_SNAPSHOT;

/// Fills `out` from the live telemetry registry.  Rank-side, execution
/// phase or later; same harvest contract as PI_GetMetricsSnapshot —
/// totals are only complete after PI_StopMain returns.  All zeros when
/// the telemetry layer is disarmed.  Returns 0 on success, PI_ERR_PHASE
/// when called before PI_StartAll.
int PI_GetTelemetrySnapshot(PI_TELEMETRY_SNAPSHOT* out);

/// Names a process/channel for diagnostics (optional, any phase).
void PI_SetName(PI_PROCESS* p, const char* name);
void PI_SetChannelName(PI_CHANNEL* ch, const char* name);

/// Total Pilot processes the job provides (same value PI_Configure
/// returned).
int PI_ProcessCount(void);

/// The process id (0 = PI_MAIN) of the calling process, valid in the
/// execution phase on rank- and SPE-side alike.
int PI_MyProcess(void);

/// Records a `user` instant in the job's trace (-pitrace=FILE or
/// CELLPILOT_TRACE): entity P<process id>, aux = source line, bytes =
/// message length; the text itself is not stored.  A no-op while tracing
/// is disarmed.  Callable from rank and SPE processes alike.
void PI_Log_(const char* file, int line, const char* message);
#define PI_Log(message) PI_Log_(__FILE__, __LINE__, message)

/// Aborts the whole job with a diagnostic carrying the calling source
/// location — the application-level counterpart of Pilot's own
/// abort-with-diagnostic error handling.
void PI_Abort_(const char* file, int line, int code, const char* message);
#define PI_Abort(code, message) PI_Abort_(__FILE__, __LINE__, code, message)
