/**
 * @file
 * Tests for the paper's core machinery: working set extraction under
 * every definition, taken-rate classification, the graph-coloring
 * branch allocator, the conflict metrics behind Tables 3/4, and the
 * end-to-end allocation pipeline.
 */

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "test_helpers.hh"

#include "core/allocation.hh"
#include "core/classification.hh"
#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "profile/interleave.hh"
#include "util/bitfield.hh"
#include "util/random.hh"
#include "workload/builder.hh"
#include "workload/executor.hh"
#include "workload/generator.hh"
#include "workload/presets.hh"

using namespace bwsa;

namespace
{

/**
 * Build a graph from an explicit edge list; node i gets pc
 * 0x1000 + 8*i and execution count exec_base * (i + 1).
 */
ConflictGraph
graphOf(std::size_t nodes,
        const std::vector<std::tuple<NodeId, NodeId, std::uint64_t>>
            &edges,
        std::uint64_t exec_base = 10)
{
    ConflictGraph g;
    for (std::size_t i = 0; i < nodes; ++i) {
        NodeId id = g.addOrGetNode(0x1000 + 8 * i);
        for (std::uint64_t e = 0; e < exec_base * (i + 1); ++e)
            g.recordExecution(id, true);
    }
    for (auto [a, b, w] : edges)
        g.addInterleave(a, b, w);
    return g;
}

/** Sorted sizes of all sets, for order-insensitive comparison. */
std::vector<std::size_t>
setSizes(const WorkingSetResult &result)
{
    std::vector<std::size_t> sizes;
    for (const WorkingSet &set : result.sets)
        sizes.push_back(set.size());
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

bool
isClique(const ConflictGraph &g, const WorkingSet &set)
{
    for (std::size_t i = 0; i < set.size(); ++i)
        for (std::size_t j = i + 1; j < set.size(); ++j)
            if (g.interleaveCount(set[i], set[j]) == 0)
                return false;
    return true;
}

} // namespace

// ------------------------------------------------------------ working sets

TEST(WorkingSets, TriangleAndEdge)
{
    // Triangle {0,1,2} + edge {3,4} + isolated {5}.
    ConflictGraph g = graphOf(
        6, {{0, 1, 500}, {1, 2, 500}, {0, 2, 500}, {3, 4, 500}});

    for (WorkingSetDefinition def :
         {WorkingSetDefinition::MaximalClique,
          WorkingSetDefinition::SeededClique,
          WorkingSetDefinition::GreedyPartition,
          WorkingSetDefinition::ConnectedComponent}) {
        WorkingSetResult result = findWorkingSets(g, def);
        EXPECT_EQ(setSizes(result),
                  (std::vector<std::size_t>{1, 2, 3}))
            << workingSetDefinitionName(def);
        EXPECT_FALSE(result.truncated);
    }
}

TEST(WorkingSets, MaximalCliqueFindsOverlaps)
{
    // Two triangles sharing an edge: {0,1,2} and {1,2,3}.  Clique
    // enumeration reports both; a partition cannot.
    ConflictGraph g = graphOf(4, {{0, 1, 1},
                                  {1, 2, 1},
                                  {0, 2, 1},
                                  {1, 3, 1},
                                  {2, 3, 1}});
    WorkingSetResult cliques =
        findWorkingSets(g, WorkingSetDefinition::MaximalClique);
    EXPECT_EQ(setSizes(cliques), (std::vector<std::size_t>{3, 3}));

    WorkingSetResult partition =
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition);
    EXPECT_EQ(partition.sets.size(), 2u);
    std::size_t covered = 0;
    for (const WorkingSet &set : partition.sets)
        covered += set.size();
    EXPECT_EQ(covered, 4u); // partition covers each node once
}

TEST(WorkingSets, SeededCliqueSetsAreMaximalCliques)
{
    // Random-ish graph; every reported set must be a clique that no
    // neighbour extends.
    ConflictGraph g = graphOf(8, {{0, 1, 1},
                                  {0, 2, 1},
                                  {1, 2, 1},
                                  {2, 3, 1},
                                  {3, 4, 1},
                                  {4, 5, 1},
                                  {3, 5, 1},
                                  {5, 6, 1},
                                  {6, 7, 1}});
    auto adjacency = g.adjacency();
    WorkingSetResult result =
        findWorkingSets(g, WorkingSetDefinition::SeededClique);
    for (const WorkingSet &set : result.sets) {
        EXPECT_TRUE(isClique(g, set));
        // Maximality: no node adjacent to every member.
        for (NodeId v = 0; v < g.nodeCount(); ++v) {
            if (std::binary_search(set.begin(), set.end(), v))
                continue;
            bool adjacent_to_all = true;
            for (NodeId m : set)
                if (g.interleaveCount(v, m) == 0) {
                    adjacent_to_all = false;
                    break;
                }
            EXPECT_FALSE(adjacent_to_all)
                << "set extensible by node " << v;
        }
    }
}

TEST(WorkingSets, GreedyPartitionIsDisjointCliqueCover)
{
    ConflictGraph g = graphOf(10, {{0, 1, 1},
                                   {0, 2, 1},
                                   {1, 2, 1},
                                   {3, 4, 1},
                                   {5, 6, 1},
                                   {6, 7, 1},
                                   {5, 7, 1},
                                   {7, 8, 1}});
    WorkingSetResult result =
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition);
    std::set<NodeId> seen;
    for (const WorkingSet &set : result.sets) {
        EXPECT_TRUE(isClique(g, set));
        for (NodeId v : set)
            EXPECT_TRUE(seen.insert(v).second)
                << "node " << v << " in two sets";
    }
    EXPECT_EQ(seen.size(), g.nodeCount());
}

TEST(WorkingSets, ConnectedComponentsUpperBoundCliques)
{
    // A path 0-1-2-3 is one component but max clique 2.
    ConflictGraph g =
        graphOf(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
    WorkingSetResult comps =
        findWorkingSets(g, WorkingSetDefinition::ConnectedComponent);
    EXPECT_EQ(setSizes(comps), (std::vector<std::size_t>{4}));
    WorkingSetResult cliques =
        findWorkingSets(g, WorkingSetDefinition::MaximalClique);
    for (const WorkingSet &set : cliques.sets)
        EXPECT_LE(set.size(), 2u);
}

TEST(WorkingSets, EnumerationCapTruncates)
{
    // A dense-ish noisy graph with a tiny expansion budget.
    std::vector<std::tuple<NodeId, NodeId, std::uint64_t>> edges;
    for (NodeId a = 0; a < 20; ++a)
        for (NodeId b = a + 1; b < 20; ++b)
            if ((a * 7 + b * 13) % 5 != 0)
                edges.emplace_back(a, b, 1);
    ConflictGraph g = graphOf(20, edges);

    WorkingSetLimits limits;
    limits.max_expansions = 10;
    WorkingSetResult result = findWorkingSets(
        g, WorkingSetDefinition::MaximalClique, limits);
    EXPECT_TRUE(result.truncated);
}

TEST(WorkingSets, StatsComputeStaticAndDynamicAverages)
{
    // Sets of size 3 (hot) and 1 (cold): static avg 2; dynamic avg
    // weighted by execution mass leans toward the hot set.
    ConflictGraph g;
    NodeId a = g.addOrGetNode(0x10);
    NodeId b = g.addOrGetNode(0x18);
    NodeId c = g.addOrGetNode(0x20);
    NodeId d = g.addOrGetNode(0x28);
    for (int i = 0; i < 100; ++i) {
        g.recordExecution(a, true);
        g.recordExecution(b, true);
        g.recordExecution(c, true);
    }
    g.recordExecution(d, false);
    g.addInterleave(a, b, 5);
    g.addInterleave(b, c, 5);
    g.addInterleave(a, c, 5);

    WorkingSetResult result =
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition);
    WorkingSetStats stats = computeWorkingSetStats(g, result);
    EXPECT_EQ(stats.total_sets, 2u);
    EXPECT_DOUBLE_EQ(stats.avg_static_size, 2.0);
    // (3*300 + 1*1) / 301
    EXPECT_NEAR(stats.avg_dynamic_size, 901.0 / 301.0, 1e-9);
    EXPECT_EQ(stats.max_size, 3u);
}

// ------------------------------------ extraction vs sorted-vector reference

namespace
{

/*
 * Reference extraction over sorted neighbour vectors: the clique
 * growth, partition and component search written the direct way, so
 * the bit-row extraction can be checked set for set, in order.
 */

std::vector<std::vector<NodeId>>
referenceAdjacency(const ConflictGraph &graph)
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
referenceHotter(const ConflictGraph &graph, NodeId a, NodeId b)
{
    std::uint64_t ea = graph.node(a).executed;
    std::uint64_t eb = graph.node(b).executed;
    if (ea != eb)
        return ea > eb;
    return a < b;
}

std::vector<WorkingSet>
referenceSeededCliques(const ConflictGraph &graph)
{
    std::vector<std::vector<NodeId>> adj = referenceAdjacency(graph);
    std::vector<WorkingSet> sets;
    std::unordered_map<std::uint64_t, std::vector<WorkingSet>> seen;
    auto set_hash = [](const WorkingSet &set) {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (NodeId id : set)
            h = mix64(h ^ (id + 0x100));
        return h;
    };

    std::vector<NodeId> candidates;
    std::vector<NodeId> next;
    for (NodeId seed = 0; seed < graph.nodeCount(); ++seed) {
        WorkingSet set{seed};
        candidates = adj[seed];
        while (!candidates.empty()) {
            NodeId best = candidates[0];
            for (NodeId c : candidates)
                if (referenceHotter(graph, c, best))
                    best = c;
            set.push_back(best);
            next.clear();
            std::set_intersection(candidates.begin(), candidates.end(),
                                  adj[best].begin(), adj[best].end(),
                                  std::back_inserter(next));
            candidates.swap(next);
        }
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
            sets.push_back(std::move(set));
        }
    }
    return sets;
}

std::vector<WorkingSet>
referenceGreedyPartition(const ConflictGraph &graph)
{
    std::vector<std::vector<NodeId>> adj = referenceAdjacency(graph);
    auto hotter = [&](NodeId a, NodeId b) {
        return referenceHotter(graph, a, b);
    };
    std::size_t n = graph.nodeCount();
    std::vector<NodeId> order(n);
    for (NodeId i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), hotter);

    std::vector<WorkingSet> sets;
    std::vector<bool> assigned(n, false);
    for (NodeId seed : order) {
        if (assigned[seed])
            continue;
        WorkingSet set{seed};
        assigned[seed] = true;
        std::vector<NodeId> candidates;
        for (NodeId v : adj[seed])
            if (!assigned[v])
                candidates.push_back(v);
        std::sort(candidates.begin(), candidates.end(), hotter);
        for (NodeId cand : candidates) {
            bool complete = true;
            for (NodeId member : set) {
                if (member != seed &&
                    !std::binary_search(adj[cand].begin(),
                                        adj[cand].end(), member)) {
                    complete = false;
                    break;
                }
            }
            if (complete) {
                set.push_back(cand);
                assigned[cand] = true;
            }
        }
        std::sort(set.begin(), set.end());
        sets.push_back(std::move(set));
    }
    return sets;
}

std::vector<WorkingSet>
referenceConnectedComponents(const ConflictGraph &graph)
{
    std::vector<std::vector<NodeId>> adj = referenceAdjacency(graph);
    std::size_t n = graph.nodeCount();
    std::vector<WorkingSet> sets;
    std::vector<bool> visited(n, false);
    std::vector<NodeId> stack;
    for (NodeId start = 0; start < n; ++start) {
        if (visited[start])
            continue;
        WorkingSet component;
        stack.push_back(start);
        visited[start] = true;
        while (!stack.empty()) {
            NodeId v = stack.back();
            stack.pop_back();
            component.push_back(v);
            for (NodeId w : adj[v]) {
                if (!visited[w]) {
                    visited[w] = true;
                    stack.push_back(w);
                }
            }
        }
        std::sort(component.begin(), component.end());
        sets.push_back(std::move(component));
    }
    return sets;
}

/**
 * Random graph whose execution counts come from {1..4}, so most
 * hotness comparisons fall through to the id tie-break.
 */
ConflictGraph
tiedRandomGraph(std::uint64_t seed, std::size_t nodes, double density)
{
    Pcg32 rng(seed);
    ConflictGraph g;
    for (std::size_t i = 0; i < nodes; ++i)
        g.restoreNode(0x1000 + 8 * i, 1 + rng.nextBounded(4), 0);
    for (NodeId a = 0; a < nodes; ++a)
        for (NodeId b = a + 1; b < nodes; ++b)
            if (rng.nextBool(density))
                g.addInterleave(a, b, 1);
    return g;
}

void
expectMatchesReference(const ConflictGraph &g, const std::string &label)
{
    EXPECT_EQ(
        findWorkingSets(g, WorkingSetDefinition::SeededClique).sets,
        referenceSeededCliques(g))
        << "seeded-clique " << label;
    EXPECT_EQ(
        findWorkingSets(g, WorkingSetDefinition::GreedyPartition).sets,
        referenceGreedyPartition(g))
        << "greedy-partition " << label;
    EXPECT_EQ(
        findWorkingSets(g, WorkingSetDefinition::ConnectedComponent).sets,
        referenceConnectedComponents(g))
        << "connected-component " << label;
}

} // namespace

TEST(WorkingSetEquivalence, RandomGraphsMatchSortedVectorReference)
{
    // Sizes straddle the 64-bit word boundaries of the bit rows.
    std::uint64_t seed = 1;
    for (std::size_t nodes : {0u, 1u, 63u, 64u, 65u, 130u, 300u})
        for (double density : {0.05, 0.25, 0.5, 0.75, 0.95}) {
            ConflictGraph g = tiedRandomGraph(seed++, nodes, density);
            expectMatchesReference(
                g, std::to_string(nodes) + " nodes at " +
                       std::to_string(density));
        }
}

TEST(WorkingSetEquivalence, ProfiledPresetMatchesSortedVectorReference)
{
    Workload w = makeWorkload("m88ksim", "", 0.05);
    ConflictGraph pruned = profileTrace(w.source()).pruned(100);
    ASSERT_GT(pruned.edgeCount(), 0u);
    expectMatchesReference(pruned, "m88ksim@0.05");
}

// ---------------------------------------------------------- classification

TEST(Classification, CutoffBoundaries)
{
    BranchClassifier classifier(0.99);
    ConflictNode node;
    node.executed = 1000;

    node.taken = 995; // 99.5% > 99%
    EXPECT_EQ(classifier.classify(node), BranchClass::BiasedTaken);
    node.taken = 990; // exactly 99% is NOT strictly greater
    EXPECT_EQ(classifier.classify(node), BranchClass::Mixed);
    node.taken = 5; // 0.5% < 1%
    EXPECT_EQ(classifier.classify(node), BranchClass::BiasedNotTaken);
    node.taken = 10; // exactly 1%
    EXPECT_EQ(classifier.classify(node), BranchClass::Mixed);
    node.taken = 500;
    EXPECT_EQ(classifier.classify(node), BranchClass::Mixed);
}

TEST(Classification, GraphClassificationAndCounts)
{
    ConflictGraph g;
    NodeId a = g.addOrGetNode(0x10); // always taken
    NodeId b = g.addOrGetNode(0x18); // never taken
    NodeId c = g.addOrGetNode(0x20); // 50/50
    for (int i = 0; i < 200; ++i) {
        g.recordExecution(a, true);
        g.recordExecution(b, false);
        g.recordExecution(c, i % 2 == 0);
    }
    BranchClassifier classifier(0.99);
    std::vector<BranchClass> classes = classifier.classifyGraph(g);
    EXPECT_EQ(classes[a], BranchClass::BiasedTaken);
    EXPECT_EQ(classes[b], BranchClass::BiasedNotTaken);
    EXPECT_EQ(classes[c], BranchClass::Mixed);

    ClassCounts counts = countClasses(classes);
    EXPECT_EQ(counts.biased_taken, 1u);
    EXPECT_EQ(counts.biased_not_taken, 1u);
    EXPECT_EQ(counts.mixed, 1u);
    EXPECT_EQ(counts.total(), 3u);
}

// ---------------------------------------------------------------- allocator

TEST(Allocation, ColorsTriangleWithoutConflictWhenRoomy)
{
    ConflictGraph g = graphOf(
        3, {{0, 1, 500}, {1, 2, 500}, {0, 2, 500}});
    AllocationConfig config;
    AllocationResult result = allocateBranches(g, 8, config);

    EXPECT_EQ(result.residual_conflict, 0u);
    EXPECT_EQ(result.shared_nodes, 0u);
    EXPECT_EQ(result.assignment.size(), 3u);
    std::set<std::uint32_t> entries;
    for (auto [pc, entry] : result.assignment) {
        EXPECT_LT(entry, 8u);
        entries.insert(entry);
    }
    EXPECT_EQ(entries.size(), 3u); // all distinct
}

TEST(Allocation, SharesMinimumWeightWhenTableTooSmall)
{
    // Triangle with one light edge (0-1).  With only 2 entries, the
    // optimal sharing merges nodes 0 and 1, paying weight 10.
    ConflictGraph g =
        graphOf(3, {{0, 1, 110}, {1, 2, 5000}, {0, 2, 5000}});
    AllocationConfig config;
    AllocationResult result = allocateBranches(g, 2, config);
    EXPECT_EQ(result.residual_conflict, 110u);
    EXPECT_EQ(result.shared_nodes, 1u);
    EXPECT_EQ(result.assignment.at(0x1000),
              result.assignment.at(0x1008));
}

TEST(Allocation, ThresholdIgnoresWeakEdges)
{
    // All edges below the threshold: any 1-entry assignment is free.
    ConflictGraph g =
        graphOf(3, {{0, 1, 50}, {1, 2, 50}, {0, 2, 50}});
    AllocationConfig config;
    config.edge_threshold = 100;
    AllocationResult result = allocateBranches(g, 1, config);
    EXPECT_EQ(result.residual_conflict, 0u);
}

TEST(Allocation, ClassificationReservesTwoEntries)
{
    ConflictGraph g;
    NodeId t1 = g.addOrGetNode(0x10);
    NodeId t2 = g.addOrGetNode(0x18);
    NodeId n1 = g.addOrGetNode(0x20);
    NodeId m1 = g.addOrGetNode(0x28);
    NodeId m2 = g.addOrGetNode(0x30);
    for (int i = 0; i < 1000; ++i) {
        g.recordExecution(t1, true);
        g.recordExecution(t2, true);
        g.recordExecution(n1, false);
        g.recordExecution(m1, i % 2 == 0);
        g.recordExecution(m2, i % 3 == 0);
    }
    // Everything conflicts with everything, heavily.
    for (NodeId a = 0; a < 5; ++a)
        for (NodeId b = a + 1; b < 5; ++b)
            g.addInterleave(a, b, 10000);

    AllocationConfig config;
    config.use_classification = true;
    AllocationResult result = allocateBranches(g, 4, config);

    EXPECT_EQ(result.reserved_entries, 2u);
    // Biased-taken branches share entry 0; biased-not-taken entry 1.
    EXPECT_EQ(result.assignment.at(0x10), 0u);
    EXPECT_EQ(result.assignment.at(0x18), 0u);
    EXPECT_EQ(result.assignment.at(0x20), 1u);
    // Mixed branches use the remaining entries (2..3), conflict-free.
    EXPECT_GE(result.assignment.at(0x28), 2u);
    EXPECT_GE(result.assignment.at(0x30), 2u);
    EXPECT_NE(result.assignment.at(0x28), result.assignment.at(0x30));
    EXPECT_EQ(result.residual_conflict, 0u);

    // Without classification the same 4-entry table must pay.
    AllocationConfig plain;
    AllocationResult without = allocateBranches(g, 4, plain);
    EXPECT_GT(without.residual_conflict, 0u);
}

TEST(AllocationDeath, ClassificationNeedsRoomForMixed)
{
    ConflictGraph g = graphOf(2, {{0, 1, 500}});
    AllocationConfig config;
    config.use_classification = true;
    EXPECT_EXIT(allocateBranches(g, 2, config),
                ::testing::ExitedWithCode(1), "reserved entries");
}

TEST(Allocation, ModuloConflictHandComputed)
{
    // Nodes at pcs 0x1000 + 8i; with a 4-entry table, nodes 0 and 4
    // share entry ((pc>>3)%4), as do 1 and 5.
    ConflictGraph g = graphOf(6, {{0, 4, 300},   // same entry
                                  {1, 5, 200},   // same entry
                                  {0, 1, 1000},  // different entries
                                  {2, 3, 40}});  // below threshold
    AllocationConfig config;
    config.edge_threshold = 100;
    EXPECT_EQ(moduloConflict(g, 4, config), 500u);
    // A wide table separates everything.
    EXPECT_EQ(moduloConflict(g, 4096, config), 0u);
}

TEST(Allocation, RequiredSizeBeatsBaselineAndIsMinimal)
{
    // Dense clique of 12 hot nodes: allocation needs enough entries
    // to keep the sharing cost at or below the PC-indexed baseline.
    std::vector<std::tuple<NodeId, NodeId, std::uint64_t>> edges;
    for (NodeId a = 0; a < 12; ++a)
        for (NodeId b = a + 1; b < 12; ++b)
            edges.emplace_back(a, b, 1000);
    // Force baseline conflicts: duplicate-entry pcs in a small table.
    ConflictGraph g = graphOf(12, edges);

    AllocationConfig config;
    RequiredSizeResult req = requiredTableSize(g, config, 8, 64);
    ASSERT_TRUE(req.achieved);
    EXPECT_GT(req.baseline_conflict, 0u); // 12 pcs into 8 entries
    EXPECT_GE(req.required_entries, 1u);
    EXPECT_LE(req.required_entries, 12u);

    // Minimality: one entry fewer must violate the target.
    if (req.required_entries > 1) {
        AllocationResult smaller = allocateBranches(
            g, req.required_entries - 1, config);
        EXPECT_GT(smaller.residual_conflict, req.baseline_conflict);
    }
    EXPECT_LE(req.allocation.residual_conflict, req.baseline_conflict);
}

TEST(Allocation, AssignmentCoversEveryNode)
{
    WorkloadParams params;
    params.structure_seed = 5;
    params.num_procedures = 8;
    Program program = generateProgram(params);
    ExecutorConfig config;
    config.max_instructions = 100000;
    WorkloadTraceSource source(program, config);

    ConflictGraph g = profileTrace(source);
    AllocationConfig alloc_config;
    AllocationResult result = allocateBranches(g, 64, alloc_config);
    EXPECT_EQ(result.assignment.size(), g.nodeCount());
    for (auto [pc, entry] : result.assignment)
        EXPECT_LT(entry, 64u);
}

// ----------------------------------------------------------------- pipeline

TEST(Pipeline, EndToEndProducesUsableSpec)
{
    WorkloadParams params;
    params.structure_seed = 21;
    params.num_procedures = 8;
    params.num_phases = 2;
    params.procs_per_phase = 2;
    Program program = generateProgram(params);
    ExecutorConfig exec_config;
    exec_config.max_instructions = 200000;
    WorkloadTraceSource source(program, exec_config);

    PipelineConfig config;
    AllocationPipeline pipeline(config);
    testhelpers::profileRun(pipeline, source);

    EXPECT_EQ(pipeline.profileCount(), 1u);
    EXPECT_GT(pipeline.graph().nodeCount(), 0u);
    EXPECT_GE(pipeline.lastSelection().coverage(), 0.999 - 1e-9);

    PredictorSpec spec = pipeline.predictorSpec(128);
    EXPECT_EQ(spec.kind, PredictorKind::PAgAllocated);
    EXPECT_EQ(spec.bht_entries, 128u);
    EXPECT_EQ(spec.assignment.size(), pipeline.graph().nodeCount());

    RequiredSizeResult req = pipeline.requiredSize(1024);
    EXPECT_TRUE(req.achieved);
    EXPECT_LE(req.required_entries, 1024u);
}

TEST(Pipeline, CumulativeProfilesMergeInputs)
{
    WorkloadParams params;
    params.structure_seed = 22;
    params.num_procedures = 8;
    params.input_mode_prob = 0.3; // strong input sensitivity
    Program program = generateProgram(params);

    ExecutorConfig input_a, input_b;
    input_a.max_instructions = input_b.max_instructions = 150000;
    input_a.input_seed = 1;
    input_b.input_seed = 0xffffffffULL;
    WorkloadTraceSource source_a(program, input_a);
    WorkloadTraceSource source_b(program, input_b);

    PipelineConfig config;
    AllocationPipeline merged(config);
    testhelpers::profileRun(merged, source_a);
    std::size_t after_a = merged.graph().nodeCount();
    testhelpers::profileRun(merged, source_b);
    EXPECT_EQ(merged.profileCount(), 2u);
    // The merged graph covers at least everything input A exercised.
    EXPECT_GE(merged.graph().nodeCount(), after_a);

    AllocationPipeline only_b(config);
    testhelpers::profileRun(only_b, source_b);
    EXPECT_GE(merged.graph().totalExecutions(),
              only_b.graph().totalExecutions());
}

TEST(PipelineDeath, AllocateBeforeProfileIsFatal)
{
    AllocationPipeline pipeline;
    EXPECT_EXIT(pipeline.allocate(64), ::testing::ExitedWithCode(1),
                "before any profile");
}
