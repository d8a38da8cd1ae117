#include "core/working_set.hh"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.hh"
#include "obs/phase_tracer.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace bwsa
{

namespace
{

/** Plain sorted adjacency without counts. */
std::vector<std::vector<NodeId>>
plainAdjacency(const ConflictGraph &graph)
{
    std::vector<std::vector<NodeId>> adj(graph.nodeCount());
    for (const auto &[key, count] : graph.edges()) {
        auto [a, b] = ConflictGraph::unpackEdge(key);
        adj[a].push_back(b);
        adj[b].push_back(a);
    }
    for (auto &list : adj)
        std::sort(list.begin(), list.end());
    return adj;
}

bool
testBit(const std::uint64_t *words, std::size_t bit)
{
    return (words[bit / 64] >> (bit % 64)) & 1;
}

void
setBit(std::uint64_t *words, std::size_t bit)
{
    words[bit / 64] |= std::uint64_t(1) << (bit % 64);
}

/**
 * The graph's adjacency as one bit row per node, with nodes renumbered
 * by hotness rank: executed count descending, then id ascending.  Bit
 * r of row rank(a) is set when a is adjacent to the node of rank r,
 * so the hottest node of any candidate set is its lowest set bit.
 * Costs n*n/8 bytes for n nodes, built in one pass over the edges.
 */
class HotnessRows
{
  public:
    explicit HotnessRows(const ConflictGraph &graph)
        : _order(graph.nodeCount()), _rank(graph.nodeCount()),
          _words((graph.nodeCount() + 63) / 64),
          _bits(graph.nodeCount() * _words, 0)
    {
        std::iota(_order.begin(), _order.end(), NodeId(0));
        std::sort(_order.begin(), _order.end(), [&](NodeId a, NodeId b) {
            std::uint64_t ea = graph.node(a).executed;
            std::uint64_t eb = graph.node(b).executed;
            if (ea != eb)
                return ea > eb;
            return a < b;
        });
        for (std::size_t r = 0; r < _order.size(); ++r)
            _rank[_order[r]] = static_cast<NodeId>(r);
        for (const auto &[key, count] : graph.edges()) {
            auto [a, b] = ConflictGraph::unpackEdge(key);
            setBit(&_bits[_rank[a] * _words], _rank[b]);
            setBit(&_bits[_rank[b] * _words], _rank[a]);
        }
    }

    std::size_t size() const { return _order.size(); }

    /** Words per row: ceil(n / 64). */
    std::size_t words() const { return _words; }

    NodeId id(std::size_t rank) const { return _order[rank]; }

    std::size_t rank(NodeId id) const { return _rank[id]; }

    const std::uint64_t *
    row(std::size_t rank) const
    {
        return &_bits[rank * _words];
    }

  private:
    std::vector<NodeId> _order;
    std::vector<NodeId> _rank;
    std::size_t _words;
    std::vector<std::uint64_t> _bits;
};

/**
 * Grow a clique greedily, hottest first: take the hottest candidate
 * (the lowest set bit of @p cand), append it to @p set and keep only
 * the candidates adjacent to it, until none remain.  Every accepted
 * member is adjacent to all earlier ones, so @p set ends as a maximal
 * clique within its starting members plus candidates.  Words below
 * the current lowest set bit are already zero and are skipped.
 */
void
growClique(const HotnessRows &rows, std::vector<std::uint64_t> &cand,
           WorkingSet &set)
{
    std::size_t words = rows.words();
    for (std::size_t w = 0; w < words;) {
        if (cand[w] == 0) {
            ++w;
            continue;
        }
        std::size_t best = w * 64 + std::countr_zero(cand[w]);
        set.push_back(rows.id(best));
        const std::uint64_t *adj = rows.row(best);
        for (std::size_t j = w; j < words; ++j)
            cand[j] &= adj[j];
    }
}

/** Bron-Kerbosch with pivoting over sorted id vectors. */
class CliqueEnumerator
{
  public:
    CliqueEnumerator(const std::vector<std::vector<NodeId>> &adj,
                     const WorkingSetLimits &limits,
                     WorkingSetResult &result)
        : _adj(adj), _limits(limits), _result(result)
    {}

    void
    run()
    {
        std::vector<NodeId> all(_adj.size());
        for (NodeId i = 0; i < _adj.size(); ++i)
            all[i] = i;
        std::vector<NodeId> r;
        expand(r, std::move(all), {});
    }

  private:
    bool
    capped() const
    {
        return (_limits.max_sets != 0 &&
                _result.sets.size() >= _limits.max_sets) ||
               (_limits.max_expansions != 0 &&
                _result.expansions >= _limits.max_expansions);
    }

    std::vector<NodeId>
    intersect(const std::vector<NodeId> &sorted_set, NodeId v) const
    {
        std::vector<NodeId> out;
        std::set_intersection(sorted_set.begin(), sorted_set.end(),
                              _adj[v].begin(), _adj[v].end(),
                              std::back_inserter(out));
        return out;
    }

    void
    expand(std::vector<NodeId> &r, std::vector<NodeId> p,
           std::vector<NodeId> x)
    {
        ++_result.expansions;
        if (capped()) {
            _result.truncated = true;
            return;
        }
        if (p.empty() && x.empty()) {
            WorkingSet set = r;
            std::sort(set.begin(), set.end());
            _result.sets.push_back(std::move(set));
            return;
        }

        // Pivot: the highest-degree candidate from P union X.  The
        // classic pivot maximizes |P intersect N(u)| exactly, but that
        // costs an intersection per candidate; global degree is a
        // near-equivalent O(|P|+|X|) proxy on the locally dense
        // graphs working sets produce.
        NodeId pivot = invalid_node;
        std::size_t best_degree = 0;
        for (const std::vector<NodeId> *set : {&p, &x}) {
            for (NodeId u : *set) {
                std::size_t degree = _adj[u].size();
                if (pivot == invalid_node || degree > best_degree) {
                    pivot = u;
                    best_degree = degree;
                }
            }
        }

        std::vector<NodeId> candidates;
        if (pivot == invalid_node) {
            candidates = p;
        } else {
            std::set_difference(p.begin(), p.end(),
                                _adj[pivot].begin(), _adj[pivot].end(),
                                std::back_inserter(candidates));
        }

        for (NodeId v : candidates) {
            if (capped()) {
                _result.truncated = true;
                return;
            }
            r.push_back(v);
            expand(r, intersect(p, v), intersect(x, v));
            r.pop_back();
            // Move v from P to X.
            p.erase(std::lower_bound(p.begin(), p.end(), v));
            auto pos = std::lower_bound(x.begin(), x.end(), v);
            x.insert(pos, v);
        }
    }

    const std::vector<std::vector<NodeId>> &_adj;
    const WorkingSetLimits &_limits;
    WorkingSetResult &_result;
};

WorkingSetResult
seededCliques(const HotnessRows &rows)
{
    WorkingSetResult result;

    // Dedup by hashing the sorted member list.
    std::unordered_map<std::uint64_t, std::vector<WorkingSet>> seen;
    auto set_hash = [](const WorkingSet &set) {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (NodeId id : set)
            h = mix64(h ^ (id + 0x100));
        return h;
    };

    std::vector<std::uint64_t> cand;
    for (NodeId seed = 0; seed < rows.size(); ++seed) {
        WorkingSet set{seed};
        const std::uint64_t *adj = rows.row(rows.rank(seed));
        cand.assign(adj, adj + rows.words());
        growClique(rows, cand, set);
        std::sort(set.begin(), set.end());

        std::uint64_t h = set_hash(set);
        bool duplicate = false;
        for (const WorkingSet &prior : seen[h])
            if (prior == set) {
                duplicate = true;
                break;
            }
        if (!duplicate) {
            seen[h].push_back(set);
            result.sets.push_back(std::move(set));
        }
    }
    return result;
}

WorkingSetResult
greedyPartition(const HotnessRows &rows)
{
    WorkingSetResult result;
    std::size_t words = rows.words();

    // Hottest branches seed sets first so the dominant loop nests form
    // coherent sets instead of being absorbed piecemeal; a set grows
    // only over neighbours no earlier set has taken.
    std::vector<std::uint64_t> assigned(words, 0);
    std::vector<std::uint64_t> cand(words);
    for (std::size_t seed = 0; seed < rows.size(); ++seed) {
        if (testBit(assigned.data(), seed))
            continue;
        WorkingSet set{rows.id(seed)};
        const std::uint64_t *adj = rows.row(seed);
        for (std::size_t j = 0; j < words; ++j)
            cand[j] = adj[j] & ~assigned[j];
        growClique(rows, cand, set);
        for (NodeId id : set)
            setBit(assigned.data(), rows.rank(id));
        std::sort(set.begin(), set.end());
        result.sets.push_back(std::move(set));
    }
    return result;
}

WorkingSetResult
connectedComponents(const HotnessRows &rows)
{
    WorkingSetResult result;
    std::size_t words = rows.words();
    std::vector<std::uint64_t> visited(words, 0);
    std::vector<std::size_t> stack;

    for (NodeId start = 0; start < rows.size(); ++start) {
        std::size_t first = rows.rank(start);
        if (testBit(visited.data(), first))
            continue;
        WorkingSet component;
        stack.push_back(first);
        setBit(visited.data(), first);
        while (!stack.empty()) {
            std::size_t v = stack.back();
            stack.pop_back();
            component.push_back(rows.id(v));
            const std::uint64_t *adj = rows.row(v);
            for (std::size_t j = 0; j < words; ++j) {
                std::uint64_t fresh = adj[j] & ~visited[j];
                visited[j] |= fresh;
                for (; fresh != 0; fresh &= fresh - 1)
                    stack.push_back(j * 64 + std::countr_zero(fresh));
            }
        }
        std::sort(component.begin(), component.end());
        result.sets.push_back(std::move(component));
    }
    return result;
}

} // namespace

std::string
workingSetDefinitionName(WorkingSetDefinition def)
{
    switch (def) {
      case WorkingSetDefinition::MaximalClique:
        return "maximal-clique";
      case WorkingSetDefinition::SeededClique:
        return "seeded-clique";
      case WorkingSetDefinition::GreedyPartition:
        return "greedy-partition";
      case WorkingSetDefinition::ConnectedComponent:
        return "connected-component";
    }
    bwsa_panic("unknown WorkingSetDefinition ", static_cast<int>(def));
}

WorkingSetResult
findWorkingSets(const ConflictGraph &graph, WorkingSetDefinition def,
                const WorkingSetLimits &limits)
{
    obs::PhaseTracer::Span span("ws.extract");
    span.addWork(graph.nodeCount());

    WorkingSetResult result;
    switch (def) {
      case WorkingSetDefinition::MaximalClique: {
        std::vector<std::vector<NodeId>> adj = plainAdjacency(graph);
        CliqueEnumerator enumerator(adj, limits, result);
        enumerator.run();
        break;
      }
      case WorkingSetDefinition::SeededClique:
        result = seededCliques(HotnessRows(graph));
        break;
      case WorkingSetDefinition::GreedyPartition:
        result = greedyPartition(HotnessRows(graph));
        break;
      case WorkingSetDefinition::ConnectedComponent:
        result = connectedComponents(HotnessRows(graph));
        break;
      default:
        bwsa_panic("unknown WorkingSetDefinition ",
                   static_cast<int>(def));
    }

    auto &registry = obs::MetricsRegistry::global();
    registry.counter("ws.extractions").inc();
    registry.counter("ws.sets_found").inc(result.sets.size());
    return result;
}

WorkingSetStats
computeWorkingSetStats(const ConflictGraph &graph,
                       const WorkingSetResult &result)
{
    WorkingSetStats stats;
    stats.total_sets = result.sets.size();

    double static_sum = 0.0;
    double weighted_sum = 0.0;
    double weight_total = 0.0;
    for (const WorkingSet &set : result.sets) {
        double size = static_cast<double>(set.size());
        static_sum += size;
        std::uint64_t weight = 0;
        for (NodeId id : set)
            weight += graph.node(id).executed;
        weighted_sum += size * static_cast<double>(weight);
        weight_total += static_cast<double>(weight);
        stats.max_size = std::max(stats.max_size, set.size());
    }
    if (stats.total_sets != 0)
        stats.avg_static_size =
            static_sum / static_cast<double>(stats.total_sets);
    if (weight_total > 0.0)
        stats.avg_dynamic_size = weighted_sum / weight_total;
    return stats;
}

} // namespace bwsa
