#include "envs.h"

#include <cmath>
#include <future>
#include <numbers>

#include "common/random.h"
#include "runtime/graph_workloads.h"
#include "spans.h"

namespace e2e {

namespace rt = bts::runtime;

CkksEnv::CkksEnv(const bts::CkksParams& params)
    : ctx(params),
      encoder(ctx),
      eval(ctx, encoder),
      keygen(ctx, params.seed + 1),
      encryptor(ctx, params.seed + 2),
      decryptor(ctx)
{
    const TraceSpan span("ckks/keygen.secret+mult_key");
    sk = keygen.gen_secret_key();
    mult_key = keygen.gen_mult_key(sk);
}

Ciphertext
CkksEnv::encrypt(const SlotVec& z, int level)
{
    return encryptor.encrypt_symmetric(encoder.encode(z, ctx.delta(), level),
                                       sk);
}

SlotVec
CkksEnv::decrypt(const Ciphertext& ct) const
{
    return encoder.decode(decryptor.decrypt(ct, sk));
}

BootEnv::BootEnv(const bts::CkksParams& params,
                 const bts::BootstrapConfig& cfg,
                 const std::vector<int>& extra_rotations)
    : env(params)
{
    conj_key = env.keygen.gen_conjugation_key(env.sk);
    {
        const TraceSpan span("ckks/bootstrapper.construct");
        boot = std::make_unique<bts::Bootstrapper>(env.ctx, env.encoder,
                                                   env.eval, cfg);
    }
    std::vector<int> amounts = boot->required_rotations();
    for (const int r : extra_rotations) {
        if (std::find(amounts.begin(), amounts.end(), r) == amounts.end()) {
            amounts.push_back(r);
        }
    }
    {
        const TraceSpan span("ckks/keygen.gen_rotation_keys");
        rot_keys = env.keygen.gen_rotation_keys(env.sk, amounts);
    }
    boot->set_keys(&env.mult_key, &rot_keys, &conj_key);
}

void
BootEnv::pin_out_level()
{
    const std::size_t slots = boot->config().slots;
    const Ciphertext probe =
        env.encrypt(random_vec(slots, 0.3, env.ctx.params().seed + 3), 0);
    const TraceSpan span("ckks/bootstrapper.bootstrap[probe]");
    out_level = boot->bootstrap(probe).level;
}

SlotVec
unit_vec(std::size_t slots, u64 seed)
{
    bts::Xoshiro256 rng(seed);
    SlotVec z(slots);
    for (auto& v : z) {
        v = std::polar(1.0, 2 * std::numbers::pi * rng.uniform_real());
    }
    return z;
}

SlotVec
random_vec(std::size_t slots, double magnitude, u64 seed)
{
    bts::Xoshiro256 rng(seed);
    SlotVec z(slots);
    for (auto& v : z) {
        v = std::polar(magnitude * rng.uniform_real(),
                       2 * std::numbers::pi * rng.uniform_real());
    }
    return z;
}

SlotVec
real_vec(std::size_t slots, double lo, double hi, u64 seed)
{
    bts::Xoshiro256 rng(seed);
    SlotVec z(slots);
    for (auto& v : z) v = Complex(lo + (hi - lo) * rng.uniform_real(), 0.0);
    return z;
}

double
max_err(const SlotVec& a, const SlotVec& b)
{
    if (a.size() != b.size()) return INFINITY;
    double worst = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::abs(a[i] - b[i]));
    }
    return worst;
}

SlotVec
mul_slots(const SlotVec& a, const SlotVec& b)
{
    SlotVec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
    return out;
}

SlotVec
rotate_slots(const SlotVec& a, int r)
{
    const auto n = static_cast<long>(a.size());
    SlotVec out(a.size());
    for (long i = 0; i < n; ++i) {
        out[static_cast<std::size_t>(i)] =
            a[static_cast<std::size_t>(((i + r) % n + n) % n)];
    }
    return out;
}

namespace {

constexpr std::size_t kServeSlots = 64;

/**
 * EvalMod interval [-K, K] and sine degree of both bootstrapping
 * instances. Both have gap = 2 and hamming weight 32, so the EvalMod
 * input is 2*I plus the message, with I the ModRaise integer part of
 * an even coefficient. |I| reaches 7 in about one key/ciphertext draw
 * in ten at N=2^12, which the library's default K = 12 does not cover
 * (EvalMod then diverges). K = 18 covers |I| <= 9; the degree follows
 * the library's convergence rule, degree > e*pi*K (about 154). Degrees
 * 121..127 would keep EvalMod's depth but the library rejects them at
 * SlotToCoeff, so 159 costs one level more than the default 119.
 */
constexpr double kEvalModK = 18.0;
constexpr int kSineDegree = 159;

bts::CkksParams
base_params(std::size_t n, int max_level, u64 seed)
{
    bts::CkksParams p;
    p.n = n;
    p.max_level = max_level;
    p.dnum = 3;
    p.q0_bits = 50;
    p.scale_bits = 40;
    p.special_bits = 50;
    p.hamming_weight = 32;
    p.seed = 7321 + seed * 1000;
    return p;
}

} // namespace

bts::CkksParams
serving_params(u64 seed)
{
    return base_params(1 << 8, 20, seed);
}

bts::CkksParams
refresh_params(u64 seed)
{
    return base_params(1 << 12, 20, seed);
}

bts::CkksParams
wide_params(u64 seed)
{
    return base_params(1 << 16, 24, seed);
}

bts::BootstrapConfig
serving_boot_config()
{
    bts::BootstrapConfig cfg;
    cfg.slots = kServeSlots;
    cfg.k_range = kEvalModK;
    cfg.sine_degree = kSineDegree;
    cfg.cts_radix = 8;
    cfg.stc_radix = 8;
    return cfg;
}

bts::BootstrapConfig
refresh_boot_config()
{
    bts::BootstrapConfig cfg;
    cfg.slots = 1024;
    cfg.k_range = kEvalModK;
    cfg.sine_degree = kSineDegree;
    cfg.cts_radix = 32;
    cfg.stc_radix = 32;
    return cfg;
}

namespace {

/** Slot data for the served apps' inputs, in the functional tests'
 *  ranges: contractive ResNet dynamics, HELR weights, features and
 *  gradients. */
std::map<int, SlotVec>
resnet_inputs(const rt::apps::ResnetApp& a,
              const rt::passes::OptimizeResult& reg, u64 seed)
{
    std::map<int, SlotVec> in;
    in[reg.remap(a.act).id] = real_vec(kServeSlots, 0.2, 0.4, seed);
    u64 s = seed;
    for (const auto& layer : a.taps) {
        bts::Xoshiro256 rng(++s);
        std::vector<double> w;
        double total = 0;
        for (std::size_t t = 0; t < layer.size(); ++t) {
            w.push_back(0.1 + rng.uniform_real());
            total += w.back();
        }
        for (std::size_t t = 0; t < layer.size(); ++t) {
            in[reg.remap(layer[t]).id] =
                SlotVec(kServeSlots, Complex(0.5 * w[t] / total, 0.0));
        }
    }
    in[reg.remap(a.pool_weights).id] =
        SlotVec(kServeSlots, Complex(0.125, 0.0));
    return in;
}

std::map<int, SlotVec>
helr_inputs(const rt::apps::HelrApp& a,
            const rt::passes::OptimizeResult& reg, u64 seed)
{
    std::map<int, SlotVec> in;
    in[reg.remap(a.weights).id] = real_vec(kServeSlots, -0.1, 0.1, seed);
    for (std::size_t c = 0; c < a.data.size(); ++c) {
        in[reg.remap(a.data[c]).id] =
            real_vec(kServeSlots, -0.5, 0.5, seed + 10 + c);
    }
    in[reg.remap(a.grad_data).id] =
        real_vec(kServeSlots, 0.005, 0.02, seed + 50);
    return in;
}

/** dot and poly: every input in [-0.5, 0.5]. */
std::map<int, SlotVec>
uniform_inputs(const rt::Graph& g, u64 seed)
{
    std::map<int, SlotVec> in;
    for (const int id : g.input_ids()) {
        in[id] = real_vec(kServeSlots, -0.5, 0.5, seed + u64(id));
    }
    return in;
}

} // namespace

ServingEnv::ServingEnv(u64 seed)
    : be(serving_params(seed), serving_boot_config(),
         {-2, -1, 1, 2, 3, 4, 5, 6, 8, 16, 32})
{
    be.pin_out_level();
    traits.max_level = be.env.ctx.max_level();
    traits.delta = be.env.ctx.delta();
    traits.bootstrap_out_level = be.out_level;

    rt::ServerOptions opts;
    opts.lanes = kLanes;
    server = std::make_unique<rt::GraphServer>(resources(), opts);

    const auto none = rt::passes::PassOptions::none();
    const std::vector<double> coeffs = {1.0, 0.5, 0.25, 0.125};
    rt::apps::ResnetConfig resnet_raw = rt::apps::ResnetConfig::functional();
    resnet_raw.optimize = false;
    rt::apps::HelrConfig helr_raw = rt::apps::HelrConfig::functional();
    helr_raw.optimize = false;
    nodes_raw = {
        rt::dot_product_graph(traits, traits.max_level, 3, none).num_nodes(),
        rt::poly_eval_graph(traits, traits.max_level, coeffs, none)
            .num_nodes(),
        rt::apps::build_resnet(resnet_raw, traits).graph.num_nodes(),
        rt::apps::build_helr(helr_raw, traits).graph.num_nodes()};

    const rt::apps::ResnetApp resnet =
        rt::apps::build_resnet(rt::apps::ResnetConfig::functional(), traits);
    const rt::apps::HelrApp helr =
        rt::apps::build_helr(rt::apps::HelrConfig::functional(), traits);
    const rt::Graph dot = rt::dot_product_graph(traits, traits.max_level, 3);
    const rt::Graph poly = rt::poly_eval_graph(traits, traits.max_level,
                                               coeffs);
    const rt::Graph* built[kNumJobKinds] = {&dot, &poly, &resnet.graph,
                                            &helr.graph};
    const auto draw = [&](JobKind kind, u64 s) {
        const rt::passes::OptimizeResult& reg =
            *registered[static_cast<int>(kind)];
        switch (kind) {
        case JobKind::kResnet: return resnet_inputs(resnet, reg, s);
        case JobKind::kHelr: return helr_inputs(helr, reg, s);
        default: return uniform_inputs(reg.graph, s);
        }
    };

    for (int k = 0; k < kNumJobKinds; ++k) {
        {
            const TraceSpan span("runtime/server.register_graph");
            const Clock::time_point t0 = Clock::now();
            registered[k] = server->register_graph(*built[k]);
            register_ms[k] = seconds_since(t0) * 1e3;
        }
        const TraceSpan span("ckks/encryptor.job_inputs");
        const rt::Graph& g = registered[k]->graph;
        for (int s = 0; s < kInputSets; ++s) {
            JobInput ji;
            ji.slots = draw(static_cast<JobKind>(k),
                            be.env.ctx.params().seed + 100 * k + s);
            for (const int id : g.input_ids()) {
                const SlotVec& v = ji.slots.at(id);
                if (g.value(id).is_plain) {
                    ji.binding.bind(rt::Value{id},
                                    be.env.encoder.encode(v, traits.delta,
                                                          traits.max_level));
                } else {
                    ji.binding.bind(rt::Value{id},
                                    be.env.encrypt(v, g.value(id).level));
                }
            }
            inputs[k].push_back(std::move(ji));
        }
    }
}

void
ServingEnv::warm_up()
{
    const TraceSpan span("runtime/server.warm_up");
    for (int k = 0; k < kNumJobKinds; ++k) {
        std::vector<std::future<rt::JobResult>> warm;
        for (int lane = 0; lane < kLanes; ++lane) {
            rt::JobRequest req;
            req.graph = &registered[k]->graph;
            req.inputs = inputs[k][0].binding;
            warm.push_back(server->submit(std::move(req)));
        }
        for (auto& f : warm) f.get();
    }
}

rt::EvalResources
ServingEnv::resources()
{
    rt::EvalResources r;
    r.eval = &be.env.eval;
    r.encoder = &be.env.encoder;
    r.mult_key = &be.env.mult_key;
    r.rot_keys = &be.rot_keys;
    r.conj_key = &be.conj_key;
    r.bootstrapper = be.boot.get();
    return r;
}

} // namespace e2e
