/**
 * @file
 * Quickstart: the smallest useful ReACH program.
 *
 * Builds the Table-II machine, registers one on-chip CNN accelerator
 * through the runtime library, streams a few query batches through
 * it, and prints what happened. Start here, then read
 * examples/cbir_pipeline.cpp for the full multi-level deployment.
 */

#include <cstdio>

#include "sim/logging.hh"
#include "core/runtime.hh"

using namespace reach;
using namespace reach::core;

int
main()
{
    sim::setQuiet(true);

    // 1. Bring up the simulated machine (Table II defaults: 1
    //    on-chip VU9P, 4 AIM near-memory modules, 4 FPGA+SSD
    //    near-storage modules, a GAM coordinating all of them).
    ReachRuntime rt{SystemConfig{}};

    // 2. Configuration (paper Listing 2): one fixed parameter buffer
    //    and a CPU -> on-chip input stream.
    auto vgg_param = rt.createFixedBuffer("./vgg16_param",
                                          Level::OnChip, 11'300'000);
    auto input = rt.createStream(Level::Cpu, Level::OnChip,
                                 StreamType::Pair,
                                 16 * 224 * 224 * 3, /*depth=*/4);

    auto cnn = rt.registerAcc("CNN-VU9P", Level::OnChip);
    cnn.setArgs(0, input);
    cnn.setArgs(1, vgg_param);

    // 3. Host loop (paper Listing 3): synchronous style; the GAM
    //    handles the asynchronous task flow.
    rt.setBatchBudget(5);
    while (rt.enqueue(input))
        cnn.execute(/*threadId=*/0);

    RunResult run = rt.run();

    std::printf("quickstart: ran %u query batches in %.2f ms of "
                "simulated time\n",
                run.batches,
                sim::secondsFromTicks(run.makespan) * 1e3);

    auto energy = rt.system().measureEnergy();
    std::printf("energy: %.2f J total, %.2f J in the accelerator\n",
                energy.total(),
                energy[energy::Component::Acc]);

    std::printf("GAM: %lu tasks dispatched, %lu bytes moved by "
                "DMA\n",
                static_cast<unsigned long>(
                    rt.system().gam().tasksDispatched()),
                static_cast<unsigned long>(
                    rt.system().gam().bytesMoved()));
    return 0;
}
