/**
 * @file
 * Explore what makes the map space hard (Section 3.1).
 *
 * Around a decent base mapping of a CNN layer, this example
 *   1. sweeps a single tile-size attribute and prints the resulting EDP
 *      series — the 1-D slice of Figure 3's spiky surface, and
 *   2. perturbs each programmable-attribute group in isolation many
 *      times, reporting the EDP spread each group can cause — a
 *      sensitivity ranking of tiling vs parallelism vs loop order vs
 *      buffer allocation.
 *
 * Useful to build intuition for why small mapping edits change cost
 * multiplicatively, which is exactly what breaks classic smooth
 * optimization here.
 */
#include <array>
#include <iostream>

#include "common/factorization.hpp"
#include "common/permutation.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "costmodel/cost_model.hpp"
#include "mapping/moves.hpp"
#include "mapping/printer.hpp"

int
main()
{
    using namespace mm;

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem p = cnnProblem("ResNet_Conv_3", 16, 128, 128, 28, 28, 3, 3);
    MapSpace space(arch, p);
    CostModel model(space);
    Rng rng(21);

    // Base point: best of a handful of random samples.
    Mapping base = space.randomValid(rng);
    for (int i = 0; i < 128; ++i) {
        Mapping cand = space.randomValid(rng);
        if (model.edp(cand) < model.edp(base))
            base = cand;
    }
    std::cout << "base mapping (normalized EDP "
              << model.normalizedEdp(base) << "):\n"
              << renderMappingCompact(space, base) << "\n\n";

    // --- 1. A 1-D tile sweep (slice of Figure 3). -----------------------
    // Move the C dimension's budget between L2 and DRAM so the factor
    // product stays legal, then project (capacity repair only). The C
    // dimension's L1/spatial factors are first folded away so every
    // (L2, DRAM) split in the sweep is reachable.
    const size_t dim = 2; // C
    Mapping sweepBase = base;
    sweepBase.tiling[size_t(MemLevel::L1)][dim] = 1;
    sweepBase.spatial[dim] = 1;
    Table sweep({"C tile factor @L2", "normalized EDP", "valid as-is"});
    for (int64_t f : {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}) {
        Mapping m = sweepBase;
        m.tiling[size_t(MemLevel::L2)][dim] = f;
        m.tiling[size_t(MemLevel::DRAM)][dim] =
            (p.bounds[dim] + f - 1) / f;
        bool valid = space.isMember(m);
        Mapping fixed = valid ? m : space.project(m);
        sweep.addRow({strCat(f), fmtDouble(model.normalizedEdp(fixed), 5),
                      valid ? "yes" : "no (projected)"});
    }
    sweep.print(std::cout);

    // --- 2. Per-attribute-group sensitivity. ----------------------------
    std::cout << "\nEDP spread from perturbing one attribute group "
                 "(200 draws each):\n";
    Table sens({"attribute group", "min/base", "median/base", "max/base"});
    const double baseEdp = model.edp(base);

    auto probe = [&](const std::string &label, auto &&perturb) {
        std::vector<double> ratios;
        for (int i = 0; i < 200; ++i) {
            Mapping m = base;
            perturb(m);
            ratios.push_back(model.edp(space.project(m)) / baseEdp);
        }
        sens.addRow({label, fmtDouble(quantile(ratios, 0.0), 4),
                     fmtDouble(quantile(ratios, 0.5), 4),
                     fmtDouble(quantile(ratios, 1.0), 4)});
    };

    probe("tiling (one dim resampled)", [&](Mapping &m) {
        size_t d = size_t(rng.uniformInt(0, int64_t(space.rank()) - 1));
        std::array<int64_t, kFactorSlots> f{};
        space.dimTable(d).sample(rng, f);
        m.tiling[size_t(MemLevel::L1)][d] = f[0];
        m.spatial[d] = f[1];
        m.tiling[size_t(MemLevel::L2)][d] = f[2];
        m.tiling[size_t(MemLevel::DRAM)][d] = f[3];
    });
    probe("loop order (one level shuffled)", [&](Mapping &m) {
        size_t lvl = size_t(rng.uniformInt(0, kNumMemLevels - 1));
        randomPerm(m.loopOrder[lvl], rng);
    });
    probe("buffer allocation (one level redrawn)", [&](Mapping &m) {
        size_t lvl = size_t(rng.uniformInt(0, kNumOnChipLevels - 1));
        int banks = arch.levels[lvl].banks;
        auto &alloc = m.bufferAlloc[lvl];
        alloc.assign(space.tensorCount(), 1);
        for (int i = 0; i < banks - int(space.tensorCount()); ++i)
            ++alloc[size_t(rng.uniformInt(0, int64_t(alloc.size()) - 1))];
    });
    probe("whole mapping (fresh sample)", [&](Mapping &m) {
        m = space.randomValid(rng);
    });
    sens.print(std::cout);

    std::cout << "\nMultiplicative swings from single-group edits are the "
                 "non-smoothness of\nSection 3.1; the surrogate gives "
                 "this landscape usable gradients.\n";
    return 0;
}
