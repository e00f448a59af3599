/**
 * @file
 * Table IV: the energy model's components, their real-world
 * references, and the constants this reproduction uses in their
 * place.
 */

#include <cstdio>

#include "common.hh"
#include "energy/energy_model.hh"
#include "mem/dram_timings.hh"
#include "storage/ssd.hh"

using namespace reach;

int
main()
{
    sim::setQuiet(true);
    bench::printHeader("Table IV: energy model tools and references "
                       "-> constants used here");

    mem::DramTimings dram;
    storage::SsdConfig ssd;
    energy::BulkEnergyRates rates;

    std::printf("%-22s %-34s %s\n", "component", "paper reference",
                "this model");
    std::printf("%-22s %-34s Table III powers x active time + "
                "device static power\n",
                "FPGA accelerators", "SDAccel 2019.1 + XPE");
    std::printf("%-22s %-34s %.1f pJ/B port traffic\n", "Cache",
                "CACTI 6.5", rates.cachePjPerByte);
    std::printf("%-22s %-34s %.0f pJ ACT/PRE, %.0f/%.0f pJ per 64B "
                "RD/WR, %.2f W/rank background\n",
                "DRAM", "Micron DDR4 power calculator",
                dram.actPreEnergyPj, dram.readBurstEnergyPj,
                dram.writeBurstEnergyPj, dram.backgroundPowerW);
    std::printf("%-22s %-34s %.1f W active / %.1f W idle per "
                "drive\n",
                "Storage", "Seagate Nytro NVMe datasheet",
                ssd.activePowerW, ssd.idlePowerW);
    std::printf("%-22s %-34s %.1f pJ/B channel + switch traffic\n",
                "Interconnect", "IDT switch + PCIe + DDR channels",
                rates.mcPjPerByte);
    std::printf("%-22s %-34s %.1f pJ/B across lanes (incl. "
                "SerDes)\n",
                "PCIe", "PCIe gen3 x16 link budget",
                rates.pciePjPerByte);
    std::printf("\nCPU energy is excluded, as in the paper (the host "
                "core idles during acceleration).\n");
    return 0;
}
