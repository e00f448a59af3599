/**
 * @file
 * The near-storage accelerator: a ZCU9-class FPGA attached to one
 * NVMe SSD over a local PCIe link, with a private 1 GB DRAM buffer
 * that caches accelerator parameters (paper §II-C, Fig. 4).
 *
 * The module adds, on top of the generic Accelerator engine, only
 * that parameter buffer. Its input streams from its own drive; host
 * IO to the disk is modelled by the SSD's host-side link, not by a
 * pass-through stage in this module.
 */

#ifndef REACH_ACC_NS_MODULE_HH
#define REACH_ACC_NS_MODULE_HH

#include "acc/accelerator.hh"
#include "storage/ssd.hh"

namespace reach::acc
{

class NsModule : public Accelerator
{
  public:
    struct NsConfig
    {
        std::uint64_t dramBufferBytes = std::uint64_t(1) << 30;
        /** Private DRAM buffer bandwidth, bytes/s. */
        double dramBufferBandwidth = 19.2e9;
    };

    NsModule(sim::Simulator &sim, const std::string &name,
             storage::Ssd &ssd, const NsConfig &cfg);

    /** Defaults: 1 GB buffer at DDR4 single-channel bandwidth. */
    NsModule(sim::Simulator &sim, const std::string &name,
             storage::Ssd &ssd);

    storage::Ssd &ssd() { return attachedSsd; }

  private:
    storage::Ssd &attachedSsd;
};

} // namespace reach::acc

#endif // REACH_ACC_NS_MODULE_HH
