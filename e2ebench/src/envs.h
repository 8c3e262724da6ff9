/**
 * @file
 * The three CKKS instances the workloads run on, each built from the
 * run's seed:
 *
 *  - serving: N=2^8, L=20, dnum=3, 64 slots, radix-8 CtS/StC, with the
 *    four served graphs registered on a 4-lane GraphServer and a pool
 *    of encrypted job inputs (the bts_profile / app-test instance);
 *  - refresh: N=2^12, L=20, dnum=3, h=32, 1024 slots, radix-32 CtS/StC,
 *    EvalMod K = 18 with sine degree 159 (both bootstrapping instances);
 *  - wide: N=2^16, L=24, dnum=3, relinearization and rotation-by-1 keys.
 *
 * Building an instance (keys, bootstrapper, graph registration, input
 * encryption) is the workload's set-up, timed as setup_s; warming it
 * (first runs that fill plans and pools) is a separate, untimed step.
 */
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckks/bootstrapper.h"
#include "ckks/decryptor.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/reference.h"
#include "runtime/apps/resnet.h"
#include "runtime/server.h"
#include "schedule.h"

namespace e2e {

using bts::Ciphertext;
using bts::Complex;
using bts::u64;
using SlotVec = std::vector<Complex>;

/** Context, encoder, evaluator, secret and relinearization keys. */
struct CkksEnv
{
    explicit CkksEnv(const bts::CkksParams& params);

    Ciphertext encrypt(const SlotVec& z, int level);
    SlotVec decrypt(const Ciphertext& ct) const;

    bts::CkksContext ctx;
    bts::CkksEncoder encoder;
    bts::Evaluator eval;
    bts::KeyGenerator keygen;
    bts::Encryptor encryptor;
    bts::Decryptor decryptor;
    bts::SecretKey sk;
    bts::EvalKey mult_key;
};

/** CkksEnv plus a bootstrapper and its rotation/conjugation keys. */
struct BootEnv
{
    BootEnv(const bts::CkksParams& params, const bts::BootstrapConfig& cfg,
            const std::vector<int>& extra_rotations);

    /** Refresh one ciphertext to learn the refreshed level (the library
     *  sets Bootstrapper::output_level() on the first run) and store it
     *  in out_level. */
    void pin_out_level();

    CkksEnv env;
    bts::EvalKey conj_key;
    std::unique_ptr<bts::Bootstrapper> boot;
    bts::RotationKeys rot_keys;
    int out_level = 0;
};

/** Unit-modulus slot vector (random phases) from @p seed. */
SlotVec unit_vec(std::size_t slots, u64 seed);
/** Complex slots with |z| <= @p magnitude from @p seed. */
SlotVec random_vec(std::size_t slots, double magnitude, u64 seed);
/** Real slots uniform in [lo, hi] from @p seed. */
SlotVec real_vec(std::size_t slots, double lo, double hi, u64 seed);

double max_err(const SlotVec& a, const SlotVec& b);

/** Slot-wise product and left rotation by @p r. */
SlotVec mul_slots(const SlotVec& a, const SlotVec& b);
SlotVec rotate_slots(const SlotVec& a, int r);

bts::CkksParams serving_params(u64 seed);
bts::CkksParams refresh_params(u64 seed);
bts::CkksParams wide_params(u64 seed);
/** Both bootstrapping instances use EvalMod K = 18, sine degree 159. */
bts::BootstrapConfig serving_boot_config();
bts::BootstrapConfig refresh_boot_config();

/** One encrypted input set of a served graph and its plaintext slots. */
struct JobInput
{
    bts::runtime::Binding binding;
    std::map<int, SlotVec> slots; //!< per input id, for reference_run
};

/**
 * The serving instance: BootEnv at serving_params (its refreshed level
 * pinned, since the graphs are built for it), the 4-lane server with
 * the four graphs registered, and kInputSets encrypted input sets per
 * graph. register_ms / nodes_raw hold what registering each graph took
 * and how large its builder form was.
 */
struct ServingEnv
{
    static constexpr int kLanes = 4;
    static constexpr int kInputSets = 6;

    explicit ServingEnv(u64 seed);

    /** Run every graph once on each lane: a lane's Executor plans a
     *  graph (evk handles, CMult plaintexts) on its first job of it. */
    void warm_up();

    bts::runtime::EvalResources resources();
    const bts::runtime::Graph& graph(JobKind k) const
    {
        return registered[static_cast<int>(k)]->graph;
    }

    BootEnv be;
    bts::runtime::GraphTraits traits;
    std::unique_ptr<bts::runtime::GraphServer> server;
    std::array<const bts::runtime::passes::OptimizeResult*, kNumJobKinds>
        registered{};
    std::array<double, kNumJobKinds> register_ms{};
    std::array<std::size_t, kNumJobKinds> nodes_raw{};
    std::array<std::vector<JobInput>, kNumJobKinds> inputs;
};

} // namespace e2e
