// Graph serialization: a line-based edge-list format, Graphviz DOT export,
// the standard graph6 codec (McKay) for interchange with nauty-family
// tooling, and a structural fingerprint used as the instance guard of the
// cross-process certification wire format (core/certify_wire.hpp).
// Round-trip safety is covered by the test suite.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace bncg {

/// Writes "n m" on the first line, then one "u v" pair per edge.
void write_edge_list(std::ostream& os, const Graph& g);

/// Largest vertex count an edge-list header may declare: 2²⁶ vertices
/// already cost 1.5 GiB of adjacency headers before the first edge, so a
/// larger header is refused up front instead of failing in the allocator.
inline constexpr long long kMaxEdgeListVertices = 1ll << 26;

/// Parses the write_edge_list format. Throws std::invalid_argument on
/// malformed input (bad counts, a vertex count above kMaxEdgeListVertices,
/// out-of-range ids, duplicate edges).
[[nodiscard]] Graph read_edge_list(std::istream& is);

/// Graphviz DOT (undirected). `name` is the graph identifier in the output.
void write_dot(std::ostream& os, const Graph& g, const std::string& name = "G");

/// graph6 encoding (McKay's format): supports n < 2^18 here, which covers
/// every instance in this library. Returns the ASCII string without a
/// trailing newline.
[[nodiscard]] std::string to_graph6(const Graph& g);

/// graph6 decoding; throws std::invalid_argument on malformed input.
[[nodiscard]] Graph from_graph6(const std::string& g6);

/// Structural fingerprint of a graph: 64-bit FNV-1a over n, m, and the
/// canonical sorted edge list. Equal graphs (same vertex ids, same edge
/// set) hash equal regardless of edge insertion order; used by the
/// cross-process certification pipeline to refuse merging shard results
/// produced from different instances. The CsrGraph overload hashes the
/// identical byte sequence (both representations keep adjacencies sorted),
/// so a snapshot fingerprints equal to the graph it was built from.
[[nodiscard]] std::uint64_t graph_fingerprint(const Graph& g);
[[nodiscard]] std::uint64_t graph_fingerprint(const CsrGraph& g);

}  // namespace bncg
