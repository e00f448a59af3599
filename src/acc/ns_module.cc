#include "ns_module.hh"

namespace reach::acc
{

NsModule::NsModule(sim::Simulator &sim, const std::string &name,
                   storage::Ssd &ssd, const NsConfig &cfg)
    : Accelerator(sim, name, Level::NearStor), attachedSsd(ssd)
{
    enableParamBuffer(cfg.dramBufferBytes, cfg.dramBufferBandwidth);
}

NsModule::NsModule(sim::Simulator &sim, const std::string &name,
                   storage::Ssd &ssd)
    : NsModule(sim, name, ssd, NsConfig{})
{
}

} // namespace reach::acc
