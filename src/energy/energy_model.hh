/**
 * @file
 * Activity-based energy accounting (paper §V, Table IV).
 *
 * The paper derives power constants from SDAccel post-routing reports
 * (accelerators), CACTI (cache), the Micron power calculator (DRAM),
 * NVMe drive datasheets (storage), and PCIe/switch datasheets
 * (interconnect), then multiplies by activity from simulation. We do
 * the same: hardware components expose activity counters, and the
 * EnergyModel rolls them up into the six component classes the
 * paper's Figure 8 / Figure 13 use. Cache and DRAM dynamic energy are
 * per-byte rates on the links that carry that traffic; DRAM also
 * draws a constant per-rank background power.
 */

#ifndef REACH_ENERGY_ENERGY_MODEL_HH
#define REACH_ENERGY_ENERGY_MODEL_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "acc/accelerator.hh"
#include "gam/gam.hh"
#include "noc/link.hh"
#include "storage/ssd.hh"

namespace reach::energy
{

/** The component classes of the paper's energy figures. */
enum class Component : std::size_t
{
    Acc = 0,
    Cache,
    Dram,
    Ssd,
    McInterconnect,
    Pcie,
    NumComponents,
};

const char *componentName(Component c);

/** Joules per component. */
struct EnergyBreakdown
{
    std::array<double, static_cast<std::size_t>(
                           Component::NumComponents)>
        joules{};

    double &operator[](Component c)
    {
        return joules[static_cast<std::size_t>(c)];
    }
    double operator[](Component c) const
    {
        return joules[static_cast<std::size_t>(c)];
    }

    double total() const;

    EnergyBreakdown operator-(const EnergyBreakdown &o) const;
    EnergyBreakdown &operator+=(const EnergyBreakdown &o);

    /** "component: J (percent)" lines. */
    void print(std::ostream &os, const std::string &indent = "") const;
};

/** Default per-byte energies for bulk-traffic links (pJ/byte). */
struct BulkEnergyRates
{
    /** Streaming DRAM traffic: burst + amortized activate energy. */
    double dramPjPerByte = 35.0;
    /** LLC/SRAM array traffic. */
    double cachePjPerByte = 4.0;
    /** Memory-channel / NoC / switch signalling. */
    double mcPjPerByte = 10.0;
    /** PCIe lanes incl. SerDes. */
    double pciePjPerByte = 35.0;
};

class EnergyModel
{
  public:
    explicit EnergyModel(BulkEnergyRates rates = {}) : rates(rates) {}

    void addAccelerator(const acc::Accelerator &a)
    {
        accs.push_back(&a);
    }
    /**
     * Register DRAM background power: @p ranks ranks drawing
     * @p wattsPerRank each over the whole measured interval.
     */
    void addDramBackground(double ranks, double wattsPerRank)
    {
        dramBackgroundW += ranks * wattsPerRank;
    }
    void addSsd(const storage::Ssd &s) { ssds.push_back(&s); }

    /**
     * Register the GAM's control traffic: every command/status packet
     * (including fault-recovery retries and re-polls) crosses the
     * memory-controller interconnect, so retries cost energy.
     */
    void addGam(const gam::Gam &g) { gams.push_back(&g); }

    /**
     * Register a bulk-traffic link and classify its bytes. A link
     * carrying DRAM streams contributes both DRAM array energy and
     * channel (MC) energy; PCIe links contribute PCIe energy.
     */
    void addLink(const noc::Link &link, Component comp);

    /** Roll up all activity into joules over [0, horizon]. */
    EnergyBreakdown measure(sim::Tick horizon) const;

  private:
    BulkEnergyRates rates;
    std::vector<const acc::Accelerator *> accs;
    /** Summed DRAM background power (W). */
    double dramBackgroundW = 0;
    std::vector<const storage::Ssd *> ssds;
    std::vector<const gam::Gam *> gams;
    std::vector<std::pair<const noc::Link *, Component>> links;
};

} // namespace reach::energy

#endif // REACH_ENERGY_ENERGY_MODEL_HH
