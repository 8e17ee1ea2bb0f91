#include "serve/model_server.h"

#include <stdexcept>
#include <utility>

#include "base/logging.h"
#include "model/encoder_plan.h"

namespace vitality {

ModelServer::ModelServer(size_t poolThreads) : pool_(poolThreads) {}

ModelServer::~ModelServer()
{
    shutdown();
}

std::string
ModelServer::modelKey(const ModelConfig &config)
{
    return config.preset.name + "/" + kernelName(config.kernel);
}

std::string
ModelServer::addModel(const ModelConfig &config)
{
    config.preset.validate();
    config.policy.validate();
    if (config.threshold && config.kernel != AttentionType::SangerSparse &&
        config.kernel != AttentionType::Unified) {
        throw std::invalid_argument(
            strfmt("addModel: kernel '%s' takes no sparsity threshold",
                   kernelName(config.kernel).c_str()));
    }
    // Fail registration, not the first dispatch: a pinned backend that
    // this host cannot run is a config error, and apply() inside the
    // dispatcher would otherwise poison every future in every batch.
    if (config.options.gemmBackend &&
        !Gemm::available(*config.options.gemmBackend)) {
        throw std::invalid_argument(
            strfmt("addModel: pinned gemm backend %s is not available "
                   "on this host",
                   Gemm::backendName(*config.options.gemmBackend)));
    }

    const std::string key = modelKey(config);
    AttentionKernelPtr kernel =
        config.threshold ? makeAttention(config.kernel, *config.threshold)
                         : makeAttention(config.kernel);

    std::lock_guard<std::mutex> lock(registryMutex_);
    if (stopping_)
        throw ServeError(ServeErrorCode::Stopping,
                         "addModel: server is shutting down");
    if (registry_.count(key))
        throw std::invalid_argument(
            strfmt("addModel: key '%s' already registered", key.c_str()));

    Entry entry;
    entry.encoder = std::make_unique<VitEncoder>(
        config.preset, std::move(kernel), config.seed);
    // Compile the execution plan at registration, so serving never
    // packs a weight panel (or lazily quantizes a weight) after
    // startup: the per-model schedule/keep pins are frozen here, the
    // activation buffers are pre-grown to the policy's maxBatch, and
    // the int8 twins are built eagerly when this model pins (or the
    // process defaults to) int8 execution. A malformed model-pinned schedule
    // fails registration, not the first dispatch; an ambient
    // VITALITY_LAYERS schedule too deep for this model is ignored with
    // a warning (the model runs uniform) so one global knob cannot
    // veto shallower models in the same process.
    PlanOptions planOpts;
    planOpts.layerKernels = config.options.layerKernels;
    planOpts.tokenKeep = config.options.tokenKeep;
    planOpts.maxBatch = config.policy.maxBatch;
    planOpts.packInt8 = (config.options.quantMode
                             ? *config.options.quantMode
                             : Gemm::quantMode()) ==
                        Gemm::QuantMode::Int8;
    entry.encoder->compilePlan(planOpts);
    entry.batcher = std::make_unique<DynamicBatcher>(
        *entry.encoder, pool_, config.policy, config.options,
        &dispatchGate_);
    registry_.emplace(key, std::move(entry));
    return key;
}

DynamicBatcher &
ModelServer::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(registryMutex_);
    const auto it = registry_.find(key);
    if (it == registry_.end()) {
        throw ServeError(
            ServeErrorCode::UnknownModel,
            strfmt("no model registered under '%s'", key.c_str()));
    }
    // Entries are never erased before shutdown joins every batcher,
    // so the reference stays valid after the registry lock releases.
    // (Batchers are internally synchronized, so handing out a mutable
    // reference from a const lookup is sound.)
    return *it->second.batcher;
}

std::future<InferenceResponse>
ModelServer::submit(const std::string &key, const Matrix &tokens)
{
    return find(key).submit(tokens);
}

BatcherStats
ModelServer::stats(const std::string &key) const
{
    return find(key).stats();
}

std::vector<std::string>
ModelServer::models() const
{
    std::lock_guard<std::mutex> lock(registryMutex_);
    std::vector<std::string> keys;
    keys.reserve(registry_.size());
    for (const auto &kv : registry_)
        keys.push_back(kv.first);
    return keys; // std::map iterates sorted
}

void
ModelServer::shutdown()
{
    // Flip stopping under the lock, then drain without it: batcher
    // shutdowns complete in-flight futures, whose waiters may call
    // stats()/models() and would deadlock on registryMutex_.
    std::vector<DynamicBatcher *> batchers;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        stopping_ = true;
        batchers.reserve(registry_.size());
        for (auto &kv : registry_)
            batchers.push_back(kv.second.batcher.get());
    }
    for (DynamicBatcher *b : batchers)
        b->shutdown();
}

} // namespace vitality
