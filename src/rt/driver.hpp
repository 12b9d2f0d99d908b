// The load driver for the concurrent runtime (DESIGN.md §11-§13, §15).
// Each tenant's client threads replay seed-deterministic op streams
// (rt/opstream.hpp) in closed-loop batches, waiting for every batch
// before issuing the next. Every batch goes through one small
// Transport, and the transport is the only thing that differs between
// runs, so local and remote access paths are compared on the same
// workload:
//
//   - inproc: RuntimeServer::run_batch, no wire;
//   - socket: pipelined netio::NetClient connections to an
//     rt::TcpServer, with per-request-id accounting, so a lost or
//     duplicated response is counted, not hidden;
//   - chaos: one netio::ResilientClient call per op through a
//     netio::ChaosProxy in front of the TcpServer. Each client thread
//     keeps a per-key possibility model of its keys. After the run the
//     driver turns faults off, quiesces, and reads every key back over
//     a clean connection to check the model.
//
// The client loop folds every answered (GenOp, code, checksum) into a
// per-thread digest (rt::fold_result) and counts it in one Errc tally.
// Digests combine in client order into `result_digest`. With one
// client thread, one worker and one connection, the socket transport
// reproduces the in-process digest. A fault-free chaos run reproduces
// the in-process run of the same options with one worker, its
// oracle.
//
// In every run a sampler thread checks the memory cap and each
// tenant's quota while clients run, and the accounting must agree
// exactly once they have joined. QoS isolation (DESIGN.md §12) and the
// chaos soak (§15) are scenarios: option sets plus checks on the
// result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "netio/chaos.hpp"
#include "netio/resilient_client.hpp"
#include "obs/histogram.hpp"
#include "rt/opstream.hpp"
#include "rt/tenant_registry.hpp"

namespace memfss::rt {

enum class TransportKind { inproc, socket, chaos };

/// One tenant's client population. The default spec is the single
/// unlimited tenant of a plain load run.
struct TenantSpec {
  /// The name "default" is slot 0, whose client threads share the key
  /// space "k<i>". Any other name is registered with these limits, and
  /// each of its client threads owns the disjoint key space
  /// "<name><thread>:k<i>".
  TenantConfig config;
  std::size_t client_threads = 1;
  std::size_t ops_per_thread = 20000;  ///< abusive: stream length, cycled
  std::size_t batch = 16;              ///< ops in flight per client
  std::uint32_t pace_us = 0;           ///< sleep between batches
  /// Cycle the stream until every other tenant is done, ignoring
  /// retry-after hints.
  bool abusive = false;
};

struct DriverOptions {
  std::vector<TenantSpec> tenants{TenantSpec{}};
  // Stream shape. With several tenants each one's seed is mixed with
  // its index, so tenants offer distinct streams.
  std::uint64_t seed = 1;
  double get_fraction = 0.5;  ///< P(get); rest split put/del
  double del_fraction = 0.0;  ///< P(del)
  double zipf_theta = 0.0;    ///< key skew (0 = uniform)
  std::size_t key_space = 16384;  ///< keys per key space (see TenantSpec)
  Bytes value_size = 1024;        ///< materialized payload bytes
  // Server sizing.
  std::size_t server_threads = 1;  ///< RuntimeServer workers
  std::size_t shards = 16;
  Bytes capacity = 256 * units::MiB;
  std::size_t queue_capacity = 4096;
  std::uint32_t service_time_us = 0;  ///< simulated remote-access latency
  std::string auth_token = "rt";
  // Transport.
  TransportKind transport = TransportKind::inproc;
  std::size_t connections_per_thread = 1;  ///< socket: pipelined conns
  std::size_t reactors = 1;                ///< socket, chaos: epoll threads
  /// chaos: inject ChaosPlan::faulty(seed); false = the clean arm (the
  /// proxy stays in the path).
  bool faults = true;
};

/// Outcome counts for one tenant (or the whole run). Every op a client
/// offered lands in exactly one of puts .. unanswered.
struct TenantResult {
  std::string name;  ///< the tenant's config name; "all" for the total
  std::uint64_t submitted = 0;   ///< offered ops, shed or not
  std::uint64_t puts = 0;        ///< ok puts
  std::uint64_t gets = 0;        ///< ok gets (hits)
  std::uint64_t dels = 0;        ///< ok dels
  std::uint64_t not_found = 0;   ///< clean misses
  std::uint64_t rejected = 0;    ///< queue-full (Errc::rejected)
  std::uint64_t overloaded = 0;  ///< QoS sheds (Errc::overloaded)
  std::uint64_t retry_after_hints = 0;  ///< sheds carrying a hint > 0
  std::uint64_t errors = 0;      ///< any other answer (oom, auth, ...)
  /// Never answered: lost on the wire, or the call deadline ran out.
  std::uint64_t unanswered = 0;
  double ops_per_sec = 0.0;  ///< completed ops / wall
  /// Per-op latency of completed ops only, as the transport sees it:
  /// submit-to-completion in process, send-to-response on a socket,
  /// the whole resilient call through the chaos proxy. Shed ops never
  /// reach a worker, so admitting them would fake tiny latencies.
  obs::HistogramSummary latency;
  /// QoS adversarial run: p99 over this tenant's own baseline p99
  /// (unset for other rows).
  std::optional<double> isolation_p99;

  std::uint64_t ok() const { return puts + gets + dels; }
  /// Answered and not shed.
  std::uint64_t completed() const { return ok() + not_found + errors; }
};

struct DriverResult {
  DriverOptions opt;
  std::vector<TenantResult> tenants;  ///< in spec order
  TenantResult total;                 ///< every tenant summed
  double wall_s = 0.0;                ///< client phase
  std::uint64_t result_digest = 0;
  bool accounting_ok = true;   ///< sampled + quiesce invariants held
  std::string accounting_msg;  ///< first violation, when !accounting_ok

  // socket and chaos transports
  std::uint64_t duplicated = 0;  ///< socket: responses with an unknown id
  std::uint64_t transport_errors = 0;  ///< socket: send/recv failures
  std::uint64_t bytes_in = 0;    ///< server-side rt.net.bytes_in
  std::uint64_t bytes_out = 0;   ///< server-side rt.net.bytes_out

  // chaos transport
  std::uint64_t fatal_calls = 0;  ///< unanswered with Errc::fatal
  netio::ResilientStats client;   ///< summed over client threads
  netio::ChaosStats chaos;        ///< proxy-side fault counters
  std::uint64_t srv_resets = 0, srv_idle_reaps = 0;
  std::uint64_t lost_acks = 0;        ///< exact acked state not found
  std::uint64_t duplicated_acks = 0;  ///< superseded value re-landed
  std::uint64_t consistency_violations = 0;  ///< read outside the model
  std::string verify_error;  ///< the verification reads could not run

  // Set by a scenario's checks.
  std::optional<bool> passed;  ///< the scenario's verdict
  /// chaos clean arm: the digest of the in-process oracle run.
  std::optional<std::uint64_t> oracle_digest;
};

DriverResult run_driver(const DriverOptions& opt);

// --- QoS isolation scenario (DESIGN.md §12) --------------------------

/// The stock adversarial configuration for bench/loadgen --qos and
/// scripts/check.sh --qos: `small` under-quota tenants plus one abusive
/// tenant offered far past its ops/s bucket.
DriverOptions qos_options(std::size_t small_tenants, std::uint64_t seed);

/// Run the scenario twice -- once without the abusive tenants
/// (baseline) and once with them -- and compare each normal tenant's
/// p99 against its own baseline.
struct QosScenarioResult {
  DriverResult baseline;     ///< abusive tenants excluded
  DriverResult adversarial;  ///< full tenant set
  /// max over normal tenants of p99(adversarial) / p99(baseline).
  double worst_isolation = 0.0;
  /// Abusers were shed by policy (overloaded), not queue-full noise.
  bool abuser_shed_via_overload = false;
};

QosScenarioResult run_qos_adversarial(const DriverOptions& opt);

// --- Network chaos soak (DESIGN.md §15) ------------------------------

/// The stock soak arm for bench/loadgen --netchaos: three client
/// threads of one named tenant (disjoint key spaces, as the
/// possibility model needs) through the chaos proxy.
DriverOptions chaos_options(std::uint64_t seed, bool faults);

/// The soak's checks on a chaos-transport run: "" when the arm passed,
/// else the first failed check. Every op reached an outcome, none of
/// the acked ones was lost or duplicated, every read stayed inside the
/// possibility model, and the accounting held; the clean arm must also
/// have no failed call and match the digest of the same options run in
/// process with one worker (the oracle, which this runs). Sets
/// r.passed, and r.oracle_digest on the clean arm.
std::string chaos_verdict(const DriverOptions& opt, DriverResult& r);

// --- CSV ---------------------------------------------------------------

/// One schema for every scenario; a column the run does not produce is
/// left empty (EXPERIMENTS.md lists which scenario fills which).
std::string driver_csv_header();
/// The row of tenant `tenant` (an index into r.tenants) of run `r`.
std::string driver_csv_row(std::string_view scenario, const DriverResult& r,
                           std::size_t tenant);

}  // namespace memfss::rt
