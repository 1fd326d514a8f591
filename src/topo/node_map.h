// Topology map of a communicator: which physical node hosts each rank, and
// the node-local sub-communicator derived from it.
//
// TCIO's level-1 -> level-2 shuffle is rank-to-rank; on a multicore node
// (12 ranks/node on the paper's testbed) that puts up to ranks_per_node
// times more small messages on the NIC than the data requires. The NodeMap
// is the ground truth the aggregation layer (node_aggregator.h) builds on:
// it derives, collectively, an intra-node communicator (MPI_Comm_split by
// node) and the ascending rank list of every node. Which rank leads a
// node's exchange is the aggregator's business: it rotates per round.
#pragma once

#include <vector>

#include "common/types.h"
#include "mpi/comm.h"

namespace tcio::topo {

class NodeMap {
 public:
  /// Collective over `comm` (performs a split). The map indexes nodes
  /// densely in order of their lowest communicator rank.
  explicit NodeMap(mpi::Comm& comm);

  int numNodes() const { return static_cast<int>(ranks_on_node_.size()); }
  int myNode() const { return my_node_; }
  /// Dense node index hosting communicator rank `r`.
  int nodeOf(Rank r) const {
    return node_of_[static_cast<std::size_t>(r)];
  }
  /// Communicator ranks hosted on node `n`, ascending.
  const std::vector<Rank>& ranksOnNode(int n) const {
    return ranks_on_node_[static_cast<std::size_t>(n)];
  }
  /// Largest rank count on any node (sizes aggregation buffers).
  int maxNodeSize() const { return max_node_size_; }

  /// The intra-node sub-communicator (every transfer inside it rides the
  /// node's memory bus, never the NIC).
  mpi::Comm& nodeComm() { return node_comm_; }
  /// This rank's position within its node.
  Rank nodeRank() const { return node_comm_.rank(); }
  int nodeSize() const { return node_comm_.size(); }

  mpi::Comm& comm() { return *comm_; }

 private:
  mpi::Comm* comm_;
  std::vector<int> node_of_;                  // comm rank -> dense node id
  std::vector<std::vector<Rank>> ranks_on_node_;
  int my_node_ = 0;
  int max_node_size_ = 0;
  mpi::Comm node_comm_;
};

}  // namespace tcio::topo
