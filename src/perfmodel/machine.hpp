// Deterministic performance model of a commodity HPC cluster.
//
// The paper evaluates its modules on NAU's "Monsoon" cluster (multi-core
// nodes, shared memory bandwidth within a node, an interconnect between
// nodes).  This repository runs on one host, not a cluster: host-clock
// speedup is only measurable up to the host's core count (nproc), and
// multi-node effects not at all.  So the paper's scaling shapes are
// produced in *simulated time*: each rank of the minimpi runtime carries a
// SimClock, compute kernels advance it through a roofline-style cost model,
// and messages advance it through a Hockney (latency + bytes/bandwidth)
// model with distinct intra-node and inter-node parameters.
//
// The model intentionally captures exactly the mechanisms the paper's
// experiments rely on:
//   * compute-bound kernels scale with core count,
//   * memory-bound kernels saturate at the per-node memory bandwidth that is
//     shared by all ranks placed on the node (so p ranks on 2 nodes can beat
//     p ranks on 1 node — Module 4, activity 3),
//   * inter-node messages cost more than intra-node messages (so
//     communication-heavy configurations prefer fewer nodes — Module 5),
//   * external co-running jobs steal node memory bandwidth (the "terrible
//     twins" co-scheduling question behind Figure 1).
#pragma once

#include <cstddef>
#include <vector>

namespace dipdc::perfmodel {

/// Static description of the modelled cluster.
struct MachineConfig {
  int nodes = 1;
  int cores_per_node = 32;

  /// Peak floating-point rate of one core (flop/s).
  double core_flops = 4.0e9;
  /// Memory bandwidth of one node, shared by all ranks placed on it (B/s).
  double node_mem_bandwidth = 80.0e9;

  /// Hockney parameters for messages between ranks on the same node
  /// (shared-memory transport) and on different nodes (interconnect).
  double intra_latency = 8.0e-7;    // seconds
  double intra_bandwidth = 2.0e10;  // B/s
  double inter_latency = 2.0e-6;    // seconds
  double inter_bandwidth = 1.25e10; // B/s (~100 Gb/s)

  /// CPU time the *sender* spends injecting a message (LogP's "o").  Much
  /// smaller than the wire latency: a non-blocking send returns almost
  /// immediately, which is what makes communication/computation overlap
  /// (Module 6) possible.
  double send_overhead = 1.0e-7;    // seconds

  /// Fraction of each node's memory bandwidth consumed by jobs outside the
  /// modelled program (co-runners).  Empty means no external load anywhere.
  std::vector<double> external_bw_load;

  /// A configuration shaped like the paper's cluster: 32-core nodes.
  static MachineConfig monsoon_like(int node_count);

  /// External bandwidth load on `node` in [0, 1).
  [[nodiscard]] double external_load(int node) const;

  /// Total cores across all nodes.
  [[nodiscard]] int total_cores() const { return nodes * cores_per_node; }
};

/// How ranks are assigned to nodes.
enum class PlacementPolicy {
  kBlock,       // ranks 0..p/n-1 on node 0, next chunk on node 1, ...
  kRoundRobin,  // rank r on node r % nodes
};

struct Placement {
  PlacementPolicy policy = PlacementPolicy::kBlock;

  /// Node hosting `rank` out of `nranks` ranks over `nodes` nodes.
  [[nodiscard]] int node_of(int rank, int nranks, int nodes) const;
};

/// Cost model bound to a concrete (machine, placement, rank count) triple.
/// This is the object the minimpi runtime and the module kernels query.
class CostModel {
 public:
  CostModel(const MachineConfig& config, Placement placement, int nranks);

  [[nodiscard]] const MachineConfig& config() const { return config_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] int node_of(int rank) const;
  [[nodiscard]] int ranks_on_node(int node) const;

  /// Point-to-point message cost (seconds) for `bytes` payload bytes.
  [[nodiscard]] double message_time(int src_rank, int dst_rank,
                                    std::size_t bytes) const;

  /// Sender-side injection overhead (seconds).
  [[nodiscard]] double send_overhead() const {
    return config_.send_overhead;
  }

  /// Time for a kernel on `rank` that executes `flops` floating-point
  /// operations and moves `mem_bytes` bytes to/from DRAM: the roofline
  /// max of compute time and memory time under the rank's bandwidth share.
  [[nodiscard]] double kernel_time(int rank, double flops,
                                   double mem_bytes) const;

  /// The DRAM bandwidth share available to one rank on `node` (B/s):
  /// the node bandwidth minus external load, divided among resident ranks.
  [[nodiscard]] double bandwidth_share(int node) const;

 private:
  MachineConfig config_;
  Placement placement_;
  int nranks_;
  std::vector<int> node_of_rank_;
  std::vector<int> ranks_per_node_;
};

/// Speedups t(1)/t(p) for a series of times indexed by run; `procs[i]` gives
/// the rank count of run i (procs[0] is the baseline).
std::vector<double> speedups(const std::vector<double>& times);

/// Parallel efficiency speedup/p.
double parallel_efficiency(double speedup, int procs);

/// Weak-scaling efficiency t(1)/t(p) with the problem size growing with p
/// (1.0 = perfect: constant time as both work and workers grow).
double weak_efficiency(double t1, double tp);

}  // namespace dipdc::perfmodel
