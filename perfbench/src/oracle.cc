#include "oracle.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "store/profile_artifact.hh"
#include "util/logging.hh"

namespace perfbench
{

using bwsa::obs::JsonValue;

void
Fnv64::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        _hash ^= p[i];
        _hash *= 0x100000001b3ull;
    }
}

std::string
Fnv64::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(_hash));
    return buf;
}

std::string
FlowDigest::diff(const FlowDigest &other) const
{
    std::string out;
    auto add = [&](const char *name, const std::string &a,
                   const std::string &b) {
        if (a != b)
            out += (out.empty() ? "" : ",") + std::string(name);
    };
    add("profile", profile, other.profile);
    add("wsets", wsets, other.wsets);
    add("alloc", alloc, other.alloc);
    add("lanes", lanes, other.lanes);
    return out;
}

FlowDigest
digestFlow(const bwsa::AllocationPipeline &pipeline,
           const bwsa::WorkingSetResult &sets,
           const std::vector<bwsa::AllocationResult> &allocs,
           const std::vector<bwsa::PredictionStats> &lanes)
{
    FlowDigest out;

    Fnv64 profile;
    std::string bytes = bwsa::store::serializeProfileArtifact(
        {pipeline.lastStats(), pipeline.lastSelection(),
         pipeline.graph()});
    profile.bytes(bytes.data(), bytes.size());
    out.profile = profile.hex();

    // Working sets hold node ids of the pruned graph, which shares
    // the unpruned graph's node numbering; hash pcs to be explicit.
    Fnv64 wsets;
    wsets.u64(sets.sets.size());
    wsets.u64(sets.truncated ? 1 : 0);
    for (const bwsa::WorkingSet &set : sets.sets) {
        wsets.u64(set.size());
        for (bwsa::NodeId id : set)
            wsets.u64(pipeline.graph().node(id).pc);
    }
    out.wsets = wsets.hex();

    Fnv64 alloc;
    for (const bwsa::AllocationResult &a : allocs) {
        std::vector<std::pair<bwsa::BranchPc, std::uint32_t>> map(
            a.assignment.begin(), a.assignment.end());
        std::sort(map.begin(), map.end());
        alloc.u64(a.table_size);
        alloc.u64(a.residual_conflict);
        alloc.u64(a.shared_nodes);
        alloc.u64(map.size());
        for (auto [pc, entry] : map) {
            alloc.u64(pc);
            alloc.u64(entry);
        }
    }
    out.alloc = alloc.hex();

    Fnv64 lane;
    for (const bwsa::PredictionStats &s : lanes) {
        lane.bytes(s.predictor_name.data(), s.predictor_name.size());
        lane.u64(s.mispredicts.events());
        lane.u64(s.mispredicts.total());
    }
    out.lanes = lane.hex();
    return out;
}

namespace
{

JsonValue
readJson(const std::string &path, bool &present)
{
    std::ifstream in(path);
    present = static_cast<bool>(in);
    JsonValue root;
    if (!present)
        return root;
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    if (!JsonValue::parse(text.str(), root, &error) || !root.isObject())
        bwsa_fatal("malformed reference file ", path, ": ", error);
    return root;
}

bool
sameKey(const JsonValue &root, const std::string &size,
        std::uint64_t seed)
{
    const JsonValue *s = root.find("size");
    const JsonValue *n = root.find("seed");
    return s && n && s->asString() == size && n->asCount() == seed;
}

} // namespace

std::optional<CellDigests>
loadReference(const std::string &path, const std::string &workload,
              const std::string &size, std::uint64_t seed)
{
    bool present = false;
    JsonValue root = readJson(path, present);
    if (!present || !sameKey(root, size, seed))
        return std::nullopt;
    const JsonValue *workloads = root.find("workloads");
    const JsonValue *cells =
        workloads ? workloads->find(workload) : nullptr;
    if (!cells)
        return std::nullopt;
    CellDigests out;
    for (const auto &[label, value] : cells->members()) {
        auto field = [&](const char *name) {
            const JsonValue *v = value.find(name);
            if (!v)
                bwsa_fatal("reference ", path, ": cell ", label,
                           " lacks '", name, "'");
            return v->asString();
        };
        out[label] = {field("profile"), field("wsets"), field("alloc"),
                      field("lanes")};
    }
    return out;
}

void
writeReference(const std::string &path, const std::string &workload,
               const std::string &size, std::uint64_t seed,
               const CellDigests &digests)
{
    bool present = false;
    JsonValue old = readJson(path, present);
    JsonValue root = JsonValue::object();
    root["format"] = "perfbench.reference.v1";
    root["size"] = size;
    root["seed"] = seed;
    JsonValue &workloads = root["workloads"];
    workloads = JsonValue::object();
    if (present && sameKey(old, size, seed))
        if (const JsonValue *w = old.find("workloads"))
            for (const auto &[name, value] : w->members())
                if (name != workload)
                    workloads[name] = value;
    JsonValue &cells = workloads[workload];
    cells = JsonValue::object();
    for (const auto &[label, d] : digests) {
        JsonValue &cell = cells[label];
        cell = JsonValue::object();
        cell["profile"] = d.profile;
        cell["wsets"] = d.wsets;
        cell["alloc"] = d.alloc;
        cell["lanes"] = d.lanes;
    }
    std::ofstream out(path);
    if (!out)
        bwsa_fatal("cannot write reference file ", path);
    root.dump(out, 2);
    out << "\n";
}

} // namespace perfbench
