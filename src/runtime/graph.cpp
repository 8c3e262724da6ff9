#include "runtime/graph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "runtime/analysis/diagnostic.h"

namespace bts::runtime {

namespace {

constexpr std::size_t
row(OpKind kind)
{
    return static_cast<std::size_t>(kind);
}

/** The primitives, in OpKind order. */
constexpr OpInfo kPrimitives[] = {
    {.kind = OpKind::kHMult, .name = "HMult", .label = "hmult",
     .arity = 2, .evk = EvkNeed::kMult, .scale_in = ScaleIn::kReduced,
     .tolerates_lazy = true, .sim = sim::HeOpKind::kHMult},
    {.kind = OpKind::kHRot, .name = "HRot", .label = "hrot",
     .evk = EvkNeed::kRotation, .tolerates_lazy = true,
     .sim = sim::HeOpKind::kHRot},
    {.kind = OpKind::kConj, .name = "Conj", .label = "conj",
     .evk = EvkNeed::kConj, .tolerates_lazy = true,
     .sim = sim::HeOpKind::kConj},
    {.kind = OpKind::kPMult, .name = "PMult", .label = "pmult",
     .arity = 2, .plain_slot = 1, .scale_in = ScaleIn::kReduced,
     .checks = kCheckPlainCovers, .tolerates_lazy = true,
     .sim = sim::HeOpKind::kPMult},
    // PAdd/HAdd/HSub: add_mod debug-asserts canonical inputs.
    {.kind = OpKind::kPAdd, .name = "PAdd", .label = "padd", .arity = 2,
     .plain_slot = 1, .scale_in = ScaleIn::kReduced,
     .checks = kCheckPlainCovers | kCheckScalesAgree,
     .sim = sim::HeOpKind::kPAdd},
    {.kind = OpKind::kHAdd, .name = "HAdd", .label = "hadd", .arity = 2,
     .scale_in = ScaleIn::kAgreeing, .checks = kCheckScalesAgree,
     .may_be_lazy = true, .sim = sim::HeOpKind::kHAdd},
    {.kind = OpKind::kHSub, .name = "HSub", .label = "hsub", .arity = 2,
     .scale_in = ScaleIn::kAgreeing, .checks = kCheckScalesAgree,
     .may_be_lazy = true, .sim = sim::HeOpKind::kHAdd}, // add-cost twin
    // The centered lift reads canonical residues.
    {.kind = OpKind::kHRescale, .name = "HRescale", .label = "hrescale",
     .checks = kCheckHasLevel, .sim = sim::HeOpKind::kHRescale},
    {.kind = OpKind::kCMult, .name = "CMult", .label = "cmult",
     .constants = 1, .scale_in = ScaleIn::kReduced,
     .tolerates_lazy = true, .sim = sim::HeOpKind::kCMult},
    // add_const_inplace adds on raw residues.
    {.kind = OpKind::kCAdd, .name = "CAdd", .label = "cadd",
     .constants = 1, .scale_in = ScaleIn::kReduced,
     .sim = sim::HeOpKind::kCAdd},
    {.kind = OpKind::kModRaise, .name = "ModRaise", .label = "mod_raise",
     .checks = kCheckExhausted, .tolerates_lazy = true,
     .sim = sim::HeOpKind::kModRaise},
    // Streams many evks through its expansion.
    {.kind = OpKind::kBootstrap, .name = "Bootstrap",
     .label = "bootstrap", .evk = EvkNeed::kBootstrapper,
     .scale_in = ScaleIn::kReduced},
};

/** A composite row: operand signature, scale contract and lazy-input
 *  tolerance come from the first part (it reads the operands), the
 *  lazy-output column from the last, the constants and key need from
 *  all of them. */
constexpr OpInfo
composite(OpKind kind, const char* name, const char* label,
          std::array<OpKind, 2> parts, int num_parts)
{
    OpInfo r = kPrimitives[row(parts[0])];
    r.kind = kind;
    r.name = name;
    r.label = label;
    r.constants = 0;
    r.evk = EvkNeed::kNone;
    for (int p = 0; p < num_parts; ++p) {
        const OpInfo& part = kPrimitives[row(parts[p])];
        r.constants += part.constants;
        if (r.evk == EvkNeed::kNone) r.evk = part.evk;
    }
    r.checks = 0;
    r.may_be_lazy = kPrimitives[row(parts[num_parts - 1])].may_be_lazy;
    r.sim.reset();
    r.part_kinds = parts;
    r.num_parts = num_parts;
    return r;
}

constexpr std::array<OpInfo, kNumOpKinds> kOpTable = [] {
    std::array<OpInfo, kNumOpKinds> t{};
    for (const OpInfo& p : kPrimitives) t[row(p.kind)] = p;
    t[row(OpKind::kHRotHoisted)] =
        composite(OpKind::kHRotHoisted, "HRotHoisted", "hrot_hoisted",
                  {OpKind::kHRot}, 1);
    t[row(OpKind::kHRotHoisted)].evk = EvkNeed::kPerAmount;
    t[row(OpKind::kHMultRescale)] =
        composite(OpKind::kHMultRescale, "HMultRescale", "hmult_rescale",
                  {OpKind::kHMult, OpKind::kHRescale}, 2);
    t[row(OpKind::kPMultRescale)] =
        composite(OpKind::kPMultRescale, "PMultRescale", "pmult_rescale",
                  {OpKind::kPMult, OpKind::kHRescale}, 2);
    t[row(OpKind::kCMultRescale)] =
        composite(OpKind::kCMultRescale, "CMultRescale", "cmult_rescale",
                  {OpKind::kCMult, OpKind::kHRescale}, 2);
    t[row(OpKind::kCMultAdd)] =
        composite(OpKind::kCMultAdd, "CMultAdd", "cmult_add",
                  {OpKind::kCMult, OpKind::kCAdd}, 2);
    return t;
}();

static_assert(kOpTable.size() == static_cast<std::size_t>(kNumOpKinds));
static_assert(
    [] {
        for (std::size_t k = 0; k < kOpTable.size(); ++k) {
            if (row(kOpTable[k].kind) != k) return false;
            if (kOpTable[k].arity > kMaxArity) return false;
        }
        return true;
    }(),
    "every OpKind needs exactly one op-table row, in enum order, of at "
    "most kMaxArity operands");

} // namespace

const OpInfo&
op_info(OpKind kind)
{
    const std::size_t k = row(kind);
    if (k >= kOpTable.size()) panic("unknown OpKind");
    return kOpTable[k];
}

const char*
op_name(OpKind kind)
{
    return op_info(kind).name;
}

bool
op_needs_evk(OpKind kind)
{
    return op_info(kind).evk != EvkNeed::kNone;
}

bool
op_tolerates_lazy_input(OpKind kind)
{
    return op_info(kind).tolerates_lazy;
}

bool
op_is_composite(OpKind kind)
{
    return !op_info(kind).parts().empty();
}

std::optional<OpKind>
op_fused(OpKind first, OpKind second)
{
    for (const OpInfo& info : kOpTable) {
        const std::span<const OpKind> parts = info.parts();
        if (parts.size() == 2 && parts[0] == first && parts[1] == second) {
            return info.kind;
        }
    }
    return std::nullopt;
}

ValueInfo
op_transfer(OpKind kind, std::span<const ValueInfo> in,
            const GraphTraits& t)
{
    ValueInfo out;
    // Level: the lowest ciphertext operand (a plaintext operand covers
    // its ciphertext's level, so slot 0 bounds it) unless the op moves
    // it; scale: the first operand's unless the op changes it.
    out.level = in.size() == 2 && op_info(kind).plain_slot != 1
                    ? std::min(in[0].level, in[1].level)
                    : in[0].level;
    out.scale = in[0].scale;
    switch (kind) {
    case OpKind::kHMult:
    case OpKind::kPMult: out.scale = in[0].scale * in[1].scale; break;
    case OpKind::kHRot:
    case OpKind::kConj:
    case OpKind::kPAdd:
    case OpKind::kHAdd:
    case OpKind::kHSub:
    case OpKind::kCAdd: break;
    case OpKind::kHRescale:
        out.level = in[0].level - 1;
        out.scale = in[0].scale / t.delta;
        break;
    case OpKind::kCMult: out.scale = in[0].scale * t.delta; break;
    case OpKind::kModRaise: out.level = t.max_level; break;
    case OpKind::kBootstrap:
        out.level = t.bootstrap_out_level;
        out.scale = t.delta; // refresh lands on the canonical scale
        break;
    default: panic(std::string(op_name(kind)) + " is not a primitive");
    }
    return out;
}

namespace {

/** Throw a builder validation failure as the same Diagnostic currency
 *  the static verifier emits (rule id, node index, op kind), so "node
 *  231 (hrescale): ..." reads identically whether it was raised while
 *  building the graph or while analyzing it. */
[[noreturn]] void
throw_node_error(const std::string& graph, std::size_t node_idx,
                 const char* rule, const char* op, std::string msg)
{
    analysis::Diagnostic d;
    d.rule = rule;
    d.severity = analysis::Severity::kError;
    d.node = static_cast<int>(node_idx);
    d.op = op;
    d.message = std::move(msg);
    analysis::throw_diagnostic(graph, std::move(d));
}

/** Loose build-time scale agreement (the evaluator enforces the exact
 *  kScaleTolerance at run time; metadata is approximate bookkeeping). */
void
check_scales_close(const std::string& graph, double a, double b,
                   const char* op, std::size_t node_idx)
{
    if (!(a > 0.0 && b > 0.0)) {
        throw_node_error(graph, node_idx, "meta-scale", op,
                         "operand scales must be positive");
    }
    if (!(std::abs(a / b - 1.0) < 1e-3)) {
        std::ostringstream os;
        os << "operand scale metadata differs (" << a << " vs " << b
           << ")";
        throw_node_error(graph, node_idx, "scale-mismatch", op,
                         os.str());
    }
}

} // namespace

u64
GraphUid::next()
{
    static std::atomic<u64> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

Graph::Graph(std::string name, GraphTraits traits)
    : name_(std::move(name)), traits_(traits)
{
    BTS_CHECK(traits_.max_level >= 0, "graph max_level must be >= 0");
    BTS_CHECK(traits_.bootstrap_out_level >= 0 &&
                  traits_.bootstrap_out_level <= traits_.max_level,
              "bootstrap_out_level outside [0, max_level]");
    BTS_CHECK(traits_.delta > 0, "graph delta must be positive");
}

Value
Graph::fresh_value(ValueInfo info)
{
    const int id = static_cast<int>(values_.size());
    values_.push_back(info);
    return Value{id};
}

Value
Graph::input(int level, double scale)
{
    BTS_CHECK(level >= 0 && level <= traits_.max_level,
              "input level outside [0, max_level]");
    BTS_CHECK(scale > 0, "input scale must be positive");
    ValueInfo info;
    info.is_input = true;
    info.level = level;
    info.scale = scale;
    const Value v = fresh_value(info);
    input_ids_.push_back(v.id);
    return v;
}

Value
Graph::plain_input(int level, double scale)
{
    BTS_CHECK(level >= 0 && level <= traits_.max_level,
              "plain input level outside [0, max_level]");
    BTS_CHECK(scale > 0, "plain input scale must be positive");
    ValueInfo info;
    info.is_plain = true;
    info.is_input = true;
    info.level = level;
    info.scale = scale;
    const Value v = fresh_value(info);
    input_ids_.push_back(v.id);
    return v;
}

// Every builder validation failure names the node being built — its
// index and op kind — and carries the violated analysis rule id, so an
// error deep inside a multi-hundred-node application graph reads like
// a verifier diagnostic ("node 231 (hrescale): ..." instead of
// "hrescale: ..."), and catch sites can recover the structured form
// from analysis::VerifyError::diagnostics().
#define BTS_NODE_CHECK(cond, rule, op, msg)                                 \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::ostringstream bts_node_msg_;                               \
            bts_node_msg_ << msg;                                           \
            throw_node_error(name_, nodes_.size(), (rule), (op),            \
                             bts_node_msg_.str());                          \
        }                                                                   \
    } while (0)

const ValueInfo&
Graph::check_operand(Value v, bool plain, const char* op) const
{
    BTS_NODE_CHECK(v.valid() && v.id < static_cast<int>(values_.size()),
                   "structure-operand", op,
                   "operand is not a value of this graph");
    const ValueInfo& info = values_[v.id];
    BTS_NODE_CHECK(!info.is_plain || plain, "structure-arity", op,
                   "expected a ciphertext operand, value " << v.id
                                                           << " is plain");
    BTS_NODE_CHECK(info.is_plain || !plain, "structure-arity", op,
                   "expected a plaintext operand, value "
                       << v.id << " is a ciphertext");
    return info;
}

void
Graph::check_step(OpKind step, std::span<const ValueInfo> in,
                  const char* op) const
{
    const unsigned checks = op_info(step).checks;
    if (checks & kCheckPlainCovers) {
        BTS_NODE_CHECK(in[1].level >= in[0].level, "meta-level", op,
                       "plaintext level " << in[1].level
                                          << " below the ciphertext's "
                                          << in[0].level);
    }
    if (checks & kCheckScalesAgree) {
        check_scales_close(name_, in[0].scale, in[1].scale, op,
                           nodes_.size());
    }
    // The graph-level image of TraceBuilder's level-underflow guard:
    // rescaling a level-0 value has no prime left to drop.
    if (checks & kCheckHasLevel) {
        BTS_NODE_CHECK(in[0].level >= 1, "level-budget", op,
                       "operand already at level 0");
    }
    if (checks & kCheckExhausted) {
        BTS_NODE_CHECK(in[0].level == 0, "meta-level", op,
                       "expects an exhausted (level-0) value, got level "
                           << in[0].level);
    }
}

std::size_t
Graph::add_node(Node n)
{
    const OpInfo& info = op_info(n.kind);
    BTS_NODE_CHECK(n.inputs.size() == static_cast<std::size_t>(info.arity),
                   "structure-arity", info.label,
                   "has " << n.inputs.size() << " operand(s), expected "
                          << info.arity);
    // Copies, not references: fresh_value() below grows the value
    // table, which would invalidate references into it.
    std::array<ValueInfo, kMaxArity> in;
    for (std::size_t s = 0; s < n.inputs.size(); ++s) {
        in[s] = check_operand(Value{n.inputs[s]},
                              static_cast<int>(s) == info.plain_slot,
                              info.label);
    }
    if (info.evk == EvkNeed::kRotation) {
        BTS_NODE_CHECK(n.rot_amount != 0, "structure-arity", info.label,
                       "rotation amount must be nonzero");
    }
    if (info.evk == EvkNeed::kPerAmount) {
        BTS_NODE_CHECK(!n.amounts.empty(), "structure-arity", info.label,
                       "needs at least one rotation amount");
        for (const int r : n.amounts) {
            BTS_NODE_CHECK(r != 0, "structure-arity", info.label,
                           "rotation amount must be nonzero");
        }
    }
    const ValueInfo meta = *fold_steps(
        n.kind, std::span<const ValueInfo>(in.data(), n.inputs.size()),
        traits_,
        [&](OpKind step, std::span<const ValueInfo> ops, const ValueInfo&) {
            check_step(step, ops, info.label);
            return true;
        });
    // Every check passed: only now count the uses, so a rejected node
    // leaves the graph as it was.
    for (const int id : n.inputs) values_[id].num_uses += 1;
    uses_conj_ = uses_conj_ || info.evk == EvkNeed::kConj;
    uses_bootstrap_ = uses_bootstrap_ || info.evk == EvkNeed::kBootstrapper;

    const std::size_t idx = nodes_.size();
    const std::size_t count =
        info.evk == EvkNeed::kPerAmount ? n.amounts.size() : 1;
    n.outputs.clear();
    for (std::size_t k = 0; k < count; ++k) {
        ValueInfo out;
        out.level = meta.level;
        out.scale = meta.scale;
        out.producer = static_cast<int>(idx);
        n.outputs.push_back(fresh_value(out).id);
    }
    n.output = n.outputs[0];
    const bool lazy = n.lazy;
    n.lazy = false;
    nodes_.push_back(std::move(n));
    if (lazy) mark_lazy(idx);
    return idx;
}

Value
Graph::add_value(Node n)
{
    return Value{nodes_[add_node(std::move(n))].output};
}

namespace {

Node
node_of(OpKind kind, std::initializer_list<Value> operands)
{
    Node n;
    n.kind = kind;
    for (const Value v : operands) n.inputs.push_back(v.id);
    return n;
}

} // namespace

Value
Graph::hmult(Value a, Value b)
{
    return add_value(node_of(OpKind::kHMult, {a, b}));
}

Value
Graph::hadd(Value a, Value b)
{
    return add_value(node_of(OpKind::kHAdd, {a, b}));
}

Value
Graph::hsub(Value a, Value b)
{
    return add_value(node_of(OpKind::kHSub, {a, b}));
}

Value
Graph::pmult(Value ct, Value pt)
{
    return add_value(node_of(OpKind::kPMult, {ct, pt}));
}

Value
Graph::padd(Value ct, Value pt)
{
    return add_value(node_of(OpKind::kPAdd, {ct, pt}));
}

Value
Graph::hrot(Value ct, int amount)
{
    Node n = node_of(OpKind::kHRot, {ct});
    n.rot_amount = amount;
    return add_value(std::move(n));
}

Value
Graph::conj(Value ct)
{
    return add_value(node_of(OpKind::kConj, {ct}));
}

Value
Graph::hrescale(Value ct)
{
    return add_value(node_of(OpKind::kHRescale, {ct}));
}

Value
Graph::cmult(Value ct, Complex c)
{
    Node n = node_of(OpKind::kCMult, {ct});
    n.constant = c;
    return add_value(std::move(n));
}

Value
Graph::cadd(Value ct, Complex c)
{
    Node n = node_of(OpKind::kCAdd, {ct});
    n.constant = c;
    return add_value(std::move(n));
}

Value
Graph::mod_raise(Value ct)
{
    return add_value(node_of(OpKind::kModRaise, {ct}));
}

Value
Graph::bootstrap(Value ct)
{
    // Unlike mod_raise, bootstrap accepts ANY input level: the refresh
    // discards whatever levels remain (the Executor drops to level 0
    // first; the lowering expands the identical plan either way).
    // Application graphs rely on this to refresh mid-circuit the
    // moment their level budget runs short.
    return add_value(node_of(OpKind::kBootstrap, {ct}));
}

std::vector<Value>
Graph::hrot_hoisted(Value ct, const std::vector<int>& amounts)
{
    Node n = node_of(OpKind::kHRotHoisted, {ct});
    n.amounts = amounts;
    std::vector<Value> outs;
    for (const int id : nodes_[add_node(std::move(n))].outputs) {
        outs.push_back(Value{id});
    }
    return outs;
}

Value
Graph::hmult_rescale(Value a, Value b)
{
    return add_value(node_of(OpKind::kHMultRescale, {a, b}));
}

Value
Graph::pmult_rescale(Value ct, Value pt)
{
    return add_value(node_of(OpKind::kPMultRescale, {ct, pt}));
}

Value
Graph::cmult_rescale(Value ct, Complex c)
{
    Node n = node_of(OpKind::kCMultRescale, {ct});
    n.constant = c;
    return add_value(std::move(n));
}

Value
Graph::cmult_add(Value ct, Complex mul_c, Complex add_c)
{
    Node n = node_of(OpKind::kCMultAdd, {ct});
    n.constant = mul_c;
    n.constant2 = add_c;
    return add_value(std::move(n));
}

void
Graph::mark_output(Value v)
{
    BTS_CHECK(v.valid() && v.id < static_cast<int>(values_.size()),
              "mark_output: not a value of this graph");
    BTS_CHECK(!values_[v.id].is_plain,
              "mark_output: outputs must be ciphertexts");
    BTS_CHECK(std::find(outputs_.begin(), outputs_.end(), v.id) ==
                  outputs_.end(),
              "mark_output: value already marked");
    values_[v.id].num_uses += 1; // outputs stay live through execution
    outputs_.push_back(v.id);
}

void
Graph::mark_lazy(std::size_t node_idx)
{
    BTS_CHECK(node_idx < nodes_.size(),
              "mark_lazy: node index out of range");
    Node& n = nodes_[node_idx];
    if (!op_info(n.kind).may_be_lazy) {
        throw_node_error(name_, node_idx, "lazy-contract",
                         op_name(n.kind),
                         "only HAdd/HSub can produce lazy residues");
    }
    n.lazy = true;
}

const ValueInfo&
Graph::value(int id) const
{
    BTS_CHECK(id >= 0 && id < static_cast<int>(values_.size()),
              "value id out of range");
    return values_[id];
}

std::vector<int>
Graph::required_rotations() const
{
    std::vector<int> amounts;
    for (const Node& n : nodes_) {
        const EvkNeed evk = op_info(n.kind).evk;
        if (evk == EvkNeed::kRotation) amounts.push_back(n.rot_amount);
        if (evk == EvkNeed::kPerAmount) {
            amounts.insert(amounts.end(), n.amounts.begin(),
                           n.amounts.end());
        }
    }
    std::sort(amounts.begin(), amounts.end());
    amounts.erase(std::unique(amounts.begin(), amounts.end()),
                  amounts.end());
    return amounts;
}

int
Graph::count_kind(OpKind kind) const
{
    int n = 0;
    for (const Node& node : nodes_) n += (node.kind == kind);
    return n;
}

std::vector<std::vector<int>>
Graph::value_users() const
{
    std::vector<std::vector<int>> users(values_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (const int in : nodes_[i].inputs) {
            users[in].push_back(static_cast<int>(i));
        }
    }
    return users;
}

std::string
Graph::debug_string() const
{
    std::ostringstream oss;
    for (const int id : input_ids_) {
        const ValueInfo& info = values_[id];
        oss << (info.is_plain ? "plain_input" : "input") << " v" << id
            << " L" << info.level << " s" << info.scale << "\n";
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        oss << "n" << i << ": " << op_name(n.kind);
        if (n.lazy) oss << "[lazy]";
        if (n.kind == OpKind::kHRot) oss << " by " << n.rot_amount;
        if (!n.amounts.empty()) {
            oss << " by {";
            for (std::size_t k = 0; k < n.amounts.size(); ++k) {
                oss << (k ? "," : "") << n.amounts[k];
            }
            oss << "}";
        }
        const int constants = op_info(n.kind).constants;
        if (constants >= 1) {
            oss << " c=(" << n.constant.real() << ","
                << n.constant.imag() << ")";
        }
        if (constants >= 2) {
            oss << " c2=(" << n.constant2.real() << ","
                << n.constant2.imag() << ")";
        }
        for (const int in : n.inputs) oss << " v" << in;
        oss << " ->";
        for (const int out : n.outputs) oss << " v" << out;
        oss << "\n";
    }
    oss << "outputs:";
    for (const int id : outputs_) oss << " v" << id;
    oss << "\n";
    return oss.str();
}

} // namespace bts::runtime
