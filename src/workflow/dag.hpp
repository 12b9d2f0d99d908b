// Scientific-workflow DAG model.
//
// A workflow is a list of tasks linked by data dependencies: a task reads
// files that earlier tasks write (the paper's §II-A: "applications
// composed of many tasks that communicate by means of files"). Stage
// structure -- wide parallel stages followed by long sequential
// aggregation/partitioning stages -- is what limits achievable
// parallelism and motivates scavenging.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace memfss::workflow {

struct OutputSpec {
  std::string path;
  Bytes bytes = 0;
};

/// Shapes the kvstore request granularity of a task's I/O: tasks that
/// issue many small requests (BLAST) disturb latency-sensitive tenants
/// more than bulk streamers (dd) at equal volume (paper §IV-C).
struct IoProfile {
  double extra_requests_per_mib = 0.0;
};

struct TaskSpec {
  std::string name;
  std::string stage;                ///< stage label (mProject, map, ...)
  double cpu_seconds = 0.0;         ///< compute work in core-seconds
  double cores = 1.0;               ///< max cores the task can use
  std::vector<std::string> inputs;  ///< file paths read before compute
  std::vector<OutputSpec> outputs;  ///< files written after compute
  IoProfile io;
};

struct Workflow {
  std::string name;
  std::vector<TaskSpec> tasks;

  /// Sum of all output sizes (total intermediate data volume).
  Bytes total_output_bytes() const;

  /// Sum of compute work.
  double total_cpu_seconds() const;
};

/// Dependency structure derived from file producer/consumer relations.
class Dag {
 public:
  /// Builds edges: task B depends on task A iff B reads a file A writes.
  /// Fails if a file has two producers or the graph has a cycle.
  static Result<Dag> build(const Workflow& wf);

  const std::vector<std::size_t>& dependencies(std::size_t task) const {
    return deps_[task];
  }
  const std::vector<std::size_t>& dependents(std::size_t task) const {
    return children_[task];
  }

  /// Tasks with no dependencies.
  std::vector<std::size_t> roots() const;

  /// A topological order (deterministic: by task index among ready).
  const std::vector<std::size_t>& topo_order() const { return topo_; }

  /// Length of the critical path in cpu_seconds (lower bound on makespan
  /// with infinite resources, ignoring I/O).
  double critical_path_seconds(const Workflow& wf) const;

  /// Maximum number of tasks that could run concurrently (antichain upper
  /// bound via level widths).
  std::size_t max_stage_width(const Workflow& wf) const;

 private:
  std::vector<std::vector<std::size_t>> deps_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::size_t> topo_;
};

}  // namespace memfss::workflow
