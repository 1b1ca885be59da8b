// app.hpp — per-application shared state.
//
// One PilotApp exists per simulated job (per pilot::run / cellpilot::run
// invocation).  It owns the canonical process/channel/bundle tables that all
// rank threads share, the options parsed by PI_Configure, the hook through
// which the CellPilot layer provides SPE transports, and the bookkeeping for
// SPE threads spawned by PI_RunSPE.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpisim/mpi.hpp"
#include "pilot/errors.hpp"
#include "pilot/tables.hpp"
#include "simtime/sim_time.hpp"

namespace cellpilot {
class Router;  // compiled data plane (core/router.hpp)
}  // namespace cellpilot

struct PI_OP;  // async operation (core/completion.hpp)

namespace pilot {

class PilotContext;

/// Reserved control tags used by the Pilot runtime.
inline constexpr int kTagShutdown = mpisim::kReservedTagBase + 64;
inline constexpr int kTagDeadlockEvent = mpisim::kReservedTagBase + 65;
inline constexpr int kTagUserBarrierIn = mpisim::kReservedTagBase + 66;
inline constexpr int kTagUserBarrierOut = mpisim::kReservedTagBase + 67;

/// Options parsed by PI_Configure from the command line.
struct Options {
  bool deadlock_detection = false;  ///< -pisvc=d
  /// Co-Pilot supervision deadline: an SPE request whose mailbox words
  /// span more than this much virtual time is declared stalled
  /// (-pideadline=<dur>).  Supervision is a read-only comparison on
  /// already-recorded stamps, so the clean path's timing is unchanged.
  simtime::SimTime spe_deadline = simtime::us(500.0);
  /// Retry/backoff budget: a stalled request is retried with a doubled
  /// deadline up to this many times before the Co-Pilot gives up and
  /// completes it with kSpeTimeout.
  int spe_deadline_retries = 3;
  /// Heartbeat lease on a crashed Co-Pilot (-pilease=<dur>): the standby
  /// waits this much virtual time past the crash stamp (detecting the
  /// missed heartbeat) before taking over from the journal.
  simtime::SimTime copilot_lease = simtime::us(200.0);
  /// Supervised SPE respawn budget (-pirespawn=N / CELLPILOT_RESPAWN):
  /// how many times Co-Pilot supervision may respawn a faulted SPE slot
  /// before degrading to poison + PILF.  0 (the default) disarms
  /// self-healing entirely — deaths take the historical path and no
  /// replay journal is kept, so no-fault runs stay byte-identical.
  int respawn_budget = 0;
  /// Coordinated checkpoint file (-pickpt=FILE / CELLPILOT_CKPT).  Empty
  /// (the default) disarms checkpointing; armed, every Co-Pilot cuts a
  /// consistent snapshot into this file on the checkpoint_interval cadence
  /// and a blade_kill fault restores the lost contexts from the last
  /// committed cut instead of degrading to poison + PILF.
  std::string checkpoint_path;
  /// Checkpoint cadence (-pickptevery=N / CELLPILOT_CKPT_EVERY): each
  /// Co-Pilot contributes to cut k after its k*N-th serviced SPE request
  /// (or earlier, on receiving the cut's marker from a peer).  Only
  /// meaningful when checkpoint_path is set.
  int checkpoint_interval = 64;
};

/// Transport hooks for channels with at least one SPE endpoint.  Implemented
/// by the CellPilot layer (src/core); null in plain-Pilot applications, in
/// which case touching an SPE channel is a usage error.
class CellTransport {
 public:
  virtual ~CellTransport() = default;

  /// SPE-side write on any channel leaving an SPE (types 2..5).
  virtual void spe_write(const PI_CHANNEL& ch, std::uint32_t sig,
                         std::span<const std::byte> payload) = 0;

  /// SPE-side read on any channel entering an SPE (types 2..5).  Fills
  /// `out` with exactly out.size() payload bytes.
  virtual void spe_read(const PI_CHANNEL& ch, std::uint32_t sig,
                        std::span<std::byte> out) = 0;

  /// Launches an SPE process (PI_RunSPE); called on the parent rank.
  virtual void run_spe(PilotContext& ctx, PI_PROCESS& proc, int arg,
                       void* ptr) = 0;

  // --- async tier (SPE-side operations; see core/completion.hpp) ----------

  /// Stages and submits an async SPE-side write; `op` is in flight on
  /// return (token assigned, local-store staging parked).
  virtual void spe_submit_write(PI_OP& op, const PI_CHANNEL& ch,
                                std::uint32_t sig,
                                std::span<const std::byte> payload) = 0;

  /// Submits an async SPE-side read for `bytes` payload bytes.
  virtual void spe_submit_read(PI_OP& op, const PI_CHANNEL& ch,
                               std::uint32_t sig, std::size_t bytes) = 0;

  /// Blocks until `op` settles, then harvests (fills `out` for reads,
  /// frees the staging, throws the recorded fault).
  virtual void spe_wait(PI_OP& op, const PI_CHANNEL& ch,
                        std::span<std::byte> out) = 0;

  /// Non-blocking spe_wait: false while `op` is still in flight.
  virtual bool spe_test(PI_OP& op, const PI_CHANNEL& ch,
                        std::span<std::byte> out) = 0;

  /// Blocks until one of `ops[0..n-1]` settles; returns its index without
  /// harvesting it.
  virtual int spe_wait_any(PI_OP* const* ops, int n) = 0;

  /// Runtime SPE spawning (PI_SpawnSPE): binds `program` to `proc` at
  /// execution time and launches it, reusing the process's previous SPE
  /// context when it is free (pooled contexts).
  virtual void spawn_spe(PilotContext& ctx, PI_PROCESS& proc,
                         const cellsim::spe2::spe_program_handle_t& program,
                         int arg, void* ptr) = 0;
};

/// Shared state of one Pilot application run.
class PilotApp {
 public:
  /// Binds the app to a simulated cluster (borrowed; must outlive the app).
  explicit PilotApp(cluster::Cluster& cluster);
  ~PilotApp();

  PilotApp(const PilotApp&) = delete;
  PilotApp& operator=(const PilotApp&) = delete;

  cluster::Cluster& cluster() { return *cluster_; }

  /// Options; written once by PI_Configure (same values on every rank).
  Options& options() { return options_; }

  /// The CellPilot transport, or null for plain Pilot runs.
  CellTransport* transport() const { return transport_; }
  void set_transport(CellTransport* t) { transport_ = t; }

  // --- canonical tables (get-or-create; see tables.hpp) -------------------

  /// Returns the process with creation sequence number `seq`.  The first
  /// rank to reach this creation point instantiates it from `proto`
  /// (assigning the next free MPI rank when `assign_rank`); later ranks get
  /// the canonical object.  Configuration runs the same code on every rank,
  /// so sequence numbers align.
  PI_PROCESS* get_or_create_process(int seq, PI_PROCESS proto,
                                    bool assign_rank);
  PI_CHANNEL* get_or_create_channel(int seq, PI_CHANNEL proto);
  PI_BUNDLE* get_or_create_bundle(int seq, PI_BUNDLE proto);

  /// Stores a channel-pointer array for the app's lifetime and returns the
  /// canonical copy (PI_CopyChannels result; same array on every rank,
  /// keyed by the first channel's id).
  PI_CHANNEL** intern_channel_array(std::vector<PI_CHANNEL*> channels);

  /// Table lookups (throw PilotError(kInternal) when out of range).
  PI_PROCESS& process(int id);
  PI_CHANNEL& channel(int id);
  PI_BUNDLE& bundle(int id);
  int process_count() const;
  int channel_count() const;
  int bundle_count() const;

  /// The compiled data plane (routes + per-endpoint format caches).
  cellpilot::Router& router() { return *router_; }

  /// Compiles every channel's route exactly once per run.  Called by
  /// PI_StartAll on every rank; the first caller does the work, the rest
  /// wait (std::call_once), so post-barrier code always sees routes.
  void compile_routes();

  /// Number of user ranks (= Pilot processes available to the programmer).
  int available_processes() const { return cluster_->user_rank_count(); }

  /// Barrier over the user ranks only (Co-Pilot/service ranks excluded);
  /// used at PI_StartAll and PI_StopMain.
  void user_barrier(mpisim::Mpi& mpi);

  // --- SPE thread bookkeeping (PI_RunSPE) ---------------------------------

  /// Registers a running SPE thread owned by `rank`.
  void add_spe_thread(mpisim::Rank rank, std::thread t);

  /// Joins all SPE threads spawned by `rank` (PI_StopMain / PI_StartAll
  /// epilogue on the owning rank).  Marks the rank passive for the
  /// duration: it cannot send while joining, and the Co-Pilot's
  /// conservative event ordering must not stall behind its frozen clock.
  void join_spe_threads(mpisim::Rank rank);

  /// Joins every remaining SPE thread (teardown safety net).
  void join_all_spe_threads();

  /// Picks a free physical SPE on `node` and marks it busy; returns its
  /// flat index.  Throws PilotError(kCapacity) when all are busy.
  unsigned acquire_spe(int node);

  /// Marks a physical SPE free again.
  void release_spe(int node, unsigned flat_index);

  /// Number of physical SPEs of `node` currently marked busy — the SPE
  /// pool-occupancy gauge the telemetry layer samples at acquire/release
  /// seams.
  int busy_spe_count(int node);

  /// Whether a physical SPE is currently assigned to a launched process
  /// (set before the worker thread starts, so the Co-Pilot's safe-time
  /// computation sees upcoming SPEs).
  bool spe_assigned(int node, unsigned flat_index);

  /// Records which Pilot process runs on a physical SPE (set by PI_RunSPE
  /// before the worker thread starts; the Co-Pilot uses it to name the
  /// process when the SPE faults).
  void bind_spe_process(int node, unsigned flat_index, int process_id);

  /// The Pilot process id bound to a physical SPE, or -1.
  int spe_process(int node, unsigned flat_index);

  // --- runtime SPE spawning (PI_SpawnSPE) ---------------------------------
  //
  // A spawned process may be relaunched with a different program once its
  // previous run retires; the bookkeeping below keeps one live thread per
  // spawned process plus the context it last occupied, so the pool can
  // hand the same physical SPE back (sticky contexts).

  /// Joins the previous occupant thread of a spawned process, if any.
  /// Same passive/flush protocol as join_spe_threads.
  void join_spawn(mpisim::Rank rank, int process_id);

  /// Like acquire_spe, but takes `preferred` when it is free.
  unsigned acquire_spe_preferring(int node, unsigned preferred);

  /// Records the running thread + context of a spawned process (joined by
  /// join_spawn on respawn, or by the join_spe_threads epilogues).
  void register_spawn(int process_id, mpisim::Rank owner, unsigned flat_index,
                      std::thread t);

  /// The physical SPE the process last ran on, if it was ever spawned.
  std::optional<unsigned> last_spawn_flat(int process_id);

  // --- supervised respawn (self-healing) ----------------------------------

  /// Everything Co-Pilot supervision needs to relaunch a faulted process's
  /// program into a fresh pooled context: registered by PI_RunSPE /
  /// PI_SpawnSPE at launch time (latest bind wins), consulted only when a
  /// fault arrives with `-pirespawn` armed.
  struct RespawnSeed {
    const cellsim::spe2::spe_program_handle_t* program = nullptr;
    int arg = 0;
    void* ptr = nullptr;
    mpisim::Rank owner = -1;  ///< parent rank (owns the worker thread)
  };

  /// Records (or refreshes) the seed for a process.
  void register_respawn_seed(int process_id, RespawnSeed seed);

  /// The seed last registered for a process, if any.
  std::optional<RespawnSeed> respawn_seed(int process_id) const;

  // --- process failure registry (Co-Pilot fault propagation) --------------

  /// A dead endpoint's epitaph, published by the Co-Pilot that owned it.
  struct ProcessFailure {
    std::uint32_t status = 0;      ///< core CompletionStatus value
    std::uint32_t fault_code = 0;  ///< cellsim::FaultCode value
    std::string detail;            ///< one-line diagnostic
  };

  /// Publishes a process's failure (idempotent: first report wins).
  void report_process_failure(int process_id, ProcessFailure failure);

  /// The failure published for a process, if any.  Rank-side data-plane
  /// calls consult this so repeat reads/writes on a dead SPE's channels
  /// fail fast instead of blocking forever.
  std::optional<ProcessFailure> process_failure(int process_id) const;

 private:
  cluster::Cluster* cluster_;
  Options options_;
  CellTransport* transport_ = nullptr;
  std::unique_ptr<cellpilot::Router> router_;
  std::once_flag routes_once_;

  mutable std::mutex tables_mu_;
  std::vector<std::unique_ptr<PI_PROCESS>> processes_;
  std::vector<std::unique_ptr<PI_CHANNEL>> channels_;
  std::vector<std::unique_ptr<PI_BUNDLE>> bundles_;
  std::map<int, std::vector<PI_CHANNEL*>> channel_arrays_;
  int ranks_assigned_ = 0;  // PI_MAIN's creation at PI_Configure takes rank 0

  std::mutex spe_mu_;
  struct OwnedThread {
    mpisim::Rank owner;
    std::thread thread;
  };
  std::vector<OwnedThread> spe_threads_;
  std::vector<std::vector<bool>> spe_busy_;  // [node][flat_index]
  std::vector<std::vector<int>> spe_process_;  // [node][flat_index] or -1
  struct SpawnRecord {
    mpisim::Rank owner = -1;
    unsigned flat = 0;
    bool has_flat = false;
    std::thread thread;
  };
  std::map<int, SpawnRecord> spawns_;  // process id -> last/live spawn

  mutable std::mutex failures_mu_;
  std::map<int, ProcessFailure> failures_;  // process id -> epitaph

  mutable std::mutex seeds_mu_;
  std::map<int, RespawnSeed> seeds_;  // process id -> launch recipe
};

}  // namespace pilot
