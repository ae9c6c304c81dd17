/**
 * @file
 * Neural-network library tests: finite-difference gradient checks for
 * weights and inputs, frozen (pre-packed) inference bitwise against the
 * unfrozen path, loss values/gradients, optimizers, the trainer loop,
 * and serialization.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "tensor/gemm.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

namespace mm {
namespace {

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng, double scale = 1.0)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(rng.uniformReal(-scale, scale));
    return m;
}

/** Loss of net(x) against target under MSE, for finite differencing. */
double
netLoss(Mlp &net, const Matrix &x, const Matrix &target)
{
    const Matrix &pred = net.forward(x);
    return lossValue(LossKind::MSE, pred, target, 1.0);
}

TEST(Mlp, ShapesAndParamCount)
{
    Rng rng(1);
    Mlp net(4, {{8, Activation::ReLU}, {3, Activation::Identity}}, rng);
    EXPECT_EQ(net.inputDim(), 4u);
    EXPECT_EQ(net.outputDim(), 3u);
    EXPECT_EQ(net.layerCount(), 2u);
    EXPECT_EQ(net.paramCount(), 4u * 8 + 8 + 8 * 3 + 3);

    Matrix x(5, 4);
    const Matrix &y = net.forward(x);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 3u);
}

TEST(Mlp, BatchedForwardBackwardMatchesPerSample)
{
    // The parallel Phase-2 driver relies on a B-row batch being exactly
    // the B per-sample evaluations: every row's arithmetic must be
    // independent and identically ordered through gemm.
    Rng rng(71);
    Mlp batched(6,
                {{16, Activation::ReLU}, {8, Activation::Tanh},
                 {3, Activation::Identity}},
                rng);
    Rng cloneRng(0);
    Mlp single(6,
               {{16, Activation::ReLU}, {8, Activation::Tanh},
                {3, Activation::Identity}},
               cloneRng);
    single.copyParamsFrom(batched);

    const size_t batchSize = 13;
    Rng dataRng(72);
    Matrix x = randomMatrix(batchSize, 6, dataRng);
    Matrix dOut = randomMatrix(batchSize, 3, dataRng);

    Matrix outBatch = batched.forward(x);
    batched.zeroGrad();
    Matrix dInBatch = batched.backward(dOut);

    Matrix outSingle(batchSize, 3), dInSingle(batchSize, 6);
    single.zeroGrad();
    Matrix xr(1, 6), dr(1, 3);
    for (size_t r = 0; r < batchSize; ++r) {
        std::copy(x.row(r).begin(), x.row(r).end(), xr.row(0).begin());
        std::copy(dOut.row(r).begin(), dOut.row(r).end(), dr.row(0).begin());
        const Matrix &o = single.forward(xr);
        std::copy(o.row(0).begin(), o.row(0).end(), outSingle.row(r).begin());
        Matrix di = single.backward(dr);
        std::copy(di.row(0).begin(), di.row(0).end(),
                  dInSingle.row(r).begin());
    }

    EXPECT_LE(maxAbsDiff(outBatch, outSingle), 1e-10);
    EXPECT_LE(maxAbsDiff(dInBatch, dInSingle), 1e-10);
    // The batch accumulates weight gradients in the same sample order as
    // the sequential loop.
    auto gb = batched.grads();
    auto gs = single.grads();
    ASSERT_EQ(gb.size(), gs.size());
    for (size_t i = 0; i < gb.size(); ++i)
        EXPECT_LE(maxAbsDiff(*gb[i], *gs[i]), 1e-10) << "grad " << i;
}

/**
 * The training backward skips the first layer's input gradient; every
 * weight and bias gradient must still be bitwise what backwardInPlace
 * accumulates, for ReLU/Tanh/Identity layers and single-layer nets.
 */
TEST(Mlp, ParamsOnlyBackwardEqualsFullBackwardBitwise)
{
    Rng rng(404);
    const std::vector<std::vector<LayerSpec>> topologies = {
        {{64, Activation::ReLU},
         {128, Activation::ReLU},
         {64, Activation::Tanh},
         {12, Activation::Identity}},
        {{5, Activation::Identity}}};
    for (const auto &specs : topologies) {
        Mlp full(63, specs, rng);
        Mlp paramsOnly = full;
        for (size_t rows : {1u, 7u, 128u}) {
            Matrix x = randomMatrix(rows, 63, rng);
            Matrix dOut = randomMatrix(rows, full.outputDim(), rng);
            for (int step = 0; step < 2; ++step) { // accumulates too
                full.forward(x);
                full.backwardInPlace(dOut);
                paramsOnly.forward(x);
                paramsOnly.backwardParams(dOut);
            }
            const std::vector<Matrix *> want = full.grads();
            const std::vector<Matrix *> got = paramsOnly.grads();
            ASSERT_EQ(want.size(), got.size());
            for (size_t g = 0; g < want.size(); ++g)
                EXPECT_EQ(std::memcmp(want[g]->data(), got[g]->data(),
                                      want[g]->size() * sizeof(float)),
                          0)
                    << "grad " << g << " rows=" << rows;
            full.zeroGrad();
            paramsOnly.zeroGrad();
        }
    }
}

/** True when @p x and @p y hold the same bits in every element. */
bool
bitwiseEqual(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols()
           && std::memcmp(x.data(), y.data(), x.size() * sizeof(float))
                  == 0;
}

/** The Fast-preset CNN surrogate's shape, with every activation. */
Mlp
surrogateShapedNet(Rng &rng)
{
    return Mlp(62,
               {{64, Activation::ReLU},
                {128, Activation::ReLU},
                {128, Activation::Tanh},
                {64, Activation::ReLU},
                {12, Activation::Identity}},
               rng);
}

/**
 * A frozen network reads pre-packed weights (both GEMM families occur
 * in this topology); its forward and input gradient must be bitwise
 * the unfrozen forward and backwardInPlace dL/dx, and inputGradient
 * must leave the weight gradients alone.
 */
TEST(Mlp, FrozenForwardAndInputGradientEqualUnfrozenBitwise)
{
    Rng rng(1414);
    Mlp plain = surrogateShapedNet(rng);
    Mlp frozen = plain;
    frozen.freeze();
    EXPECT_TRUE(frozen.frozen());
    EXPECT_FALSE(plain.frozen());
    for (size_t rows : {1u, 4u, 128u}) {
        Matrix x = randomMatrix(rows, 62, rng);
        Matrix dOut = randomMatrix(rows, 12, rng);
        const Matrix yPlain = plain.forward(x);
        const Matrix yFrozen = frozen.forward(x);
        EXPECT_TRUE(bitwiseEqual(yPlain, yFrozen)) << "rows=" << rows;

        plain.zeroGrad();
        const Matrix dxPlain = plain.backwardInPlace(dOut);
        frozen.zeroGrad();
        EXPECT_TRUE(bitwiseEqual(frozen.inputGradient(dOut), dxPlain))
            << "rows=" << rows;
        for (const Matrix *g : frozen.grads())
            EXPECT_EQ(squaredNorm(*g), 0.0) << "rows=" << rows;

        // The full backward of a frozen net (dX through the packs).
        EXPECT_TRUE(bitwiseEqual(frozen.backwardInPlace(dOut), dxPlain))
            << "rows=" << rows;
        const std::vector<Matrix *> want = plain.grads();
        const std::vector<Matrix *> got = frozen.grads();
        for (size_t g = 0; g < want.size(); ++g)
            EXPECT_TRUE(bitwiseEqual(*want[g], *got[g]))
                << "grad " << g << " rows=" << rows;
    }
}

/**
 * Every path that writes weights drops the packs: after params(),
 * softUpdateFrom or copyParamsFrom a frozen net computes bitwise what
 * an unfrozen net with the same weights does, and copies taken before
 * the write keep the old weights' packs.
 */
TEST(Mlp, WeightWritesAfterFreezeUseTheNewWeights)
{
    Rng rng(1515);
    Mlp plain = surrogateShapedNet(rng);
    Mlp other = surrogateShapedNet(rng);
    Matrix x = randomMatrix(4, 62, rng);
    Matrix dOut = randomMatrix(4, 12, rng);
    auto expectSame = [&](Mlp &got, Mlp &want, const char *what) {
        EXPECT_TRUE(bitwiseEqual(got.forward(x), want.forward(x))) << what;
        Matrix dxWant = want.backwardInPlace(dOut);
        EXPECT_TRUE(bitwiseEqual(got.inputGradient(dOut), dxWant)) << what;
    };

    Mlp frozen = plain;
    frozen.freeze();
    Mlp snapshot = frozen; // shares the packs of the original weights
    frozen.params()[2]->data()[5] += 0.25f; // layer 1 (blocked) weight
    frozen.params()[0]->data()[3] -= 0.5f;  // layer 0 (skinny) weight
    EXPECT_FALSE(frozen.frozen());
    plain.params()[2]->data()[5] += 0.25f;
    plain.params()[0]->data()[3] -= 0.5f;
    expectSame(frozen, plain, "params()");
    frozen.freeze();
    expectSame(frozen, plain, "params() then freeze()");

    Rng again(1515);
    Mlp reference = surrogateShapedNet(again);
    EXPECT_TRUE(bitwiseEqual(snapshot.forward(x), reference.forward(x)))
        << "copy taken before the write";

    frozen.softUpdateFrom(other, 0.3f);
    plain.softUpdateFrom(other, 0.3f);
    expectSame(frozen, plain, "softUpdateFrom");

    frozen.freeze();
    frozen.copyParamsFrom(other);
    expectSame(frozen, other, "copyParamsFrom");
}

TEST(Mlp, WeightGradientsMatchFiniteDifferences)
{
    Rng rng(2);
    Mlp net(3, {{6, Activation::Tanh}, {2, Activation::Identity}}, rng);
    Matrix x = randomMatrix(4, 3, rng);
    Matrix target = randomMatrix(4, 2, rng);

    const Matrix &pred = net.forward(x);
    Matrix grad;
    lossForward(LossKind::MSE, pred, target, 1.0, grad);
    net.zeroGrad();
    net.backward(grad);

    auto params = net.params();
    auto grads = net.grads();
    const double eps = 1e-3;
    for (size_t p = 0; p < params.size(); ++p) {
        for (size_t i = 0; i < std::min<size_t>(params[p]->size(), 6);
             ++i) {
            float saved = params[p]->data()[i];
            params[p]->data()[i] = saved + float(eps);
            double up = netLoss(net, x, target);
            params[p]->data()[i] = saved - float(eps);
            double down = netLoss(net, x, target);
            params[p]->data()[i] = saved;
            double numeric = (up - down) / (2.0 * eps);
            double analytic = double(grads[p]->data()[i]);
            EXPECT_NEAR(analytic, numeric,
                        2e-2 * std::max(1.0, std::fabs(numeric)))
                << "param " << p << " index " << i;
        }
    }
}

TEST(Mlp, InputGradientsMatchFiniteDifferences)
{
    // The input gradient is the core mechanism of Phase 2 (gradients of
    // the surrogate with respect to the candidate mapping).
    Rng rng(3);
    Mlp net(5, {{8, Activation::ReLU}, {4, Activation::Tanh},
                {1, Activation::Identity}},
            rng);
    Matrix x = randomMatrix(1, 5, rng);
    Matrix target(1, 1);
    target.at(0, 0) = 0.3f;

    const Matrix &pred = net.forward(x);
    Matrix grad;
    lossForward(LossKind::MSE, pred, target, 1.0, grad);
    net.zeroGrad();
    Matrix dIn = net.backward(grad);
    ASSERT_EQ(dIn.rows(), 1u);
    ASSERT_EQ(dIn.cols(), 5u);

    const double eps = 1e-3;
    for (size_t i = 0; i < 5; ++i) {
        float saved = x.at(0, i);
        x.at(0, i) = saved + float(eps);
        double up = netLoss(net, x, target);
        x.at(0, i) = saved - float(eps);
        double down = netLoss(net, x, target);
        x.at(0, i) = saved;
        double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(double(dIn.at(0, i)), numeric,
                    2e-2 * std::max(0.1, std::fabs(numeric)))
            << "input " << i;
    }
}

TEST(Loss, ValuesAndGradients)
{
    Matrix pred(1, 2), target(1, 2);
    pred.at(0, 0) = 1.0f;
    pred.at(0, 1) = -3.0f;
    target.at(0, 0) = 0.5f;
    target.at(0, 1) = 0.0f;
    // errors: {0.5, -3}
    Matrix grad;

    // MSE: mean(0.5*e^2) = (0.125 + 4.5) / 2
    EXPECT_NEAR(lossForward(LossKind::MSE, pred, target, 1.0, grad),
                (0.125 + 4.5) / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 0), 0.5 / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 1), -3.0 / 2.0, 1e-6);

    // MAE: mean(|e|) = (0.5 + 3) / 2
    EXPECT_NEAR(lossForward(LossKind::MAE, pred, target, 1.0, grad),
                1.75, 1e-6);
    EXPECT_NEAR(grad.at(0, 1), -0.5, 1e-6);

    // Huber(delta=1): quadratic for |e|<=1, linear beyond.
    EXPECT_NEAR(lossForward(LossKind::Huber, pred, target, 1.0, grad),
                (0.5 * 0.25 + (3.0 - 0.5)) / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 0), 0.5 / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(0, 1), -1.0 / 2.0, 1e-6);
}

TEST(Loss, HuberEqualsMseInsideDelta)
{
    Rng rng(5);
    Matrix pred = randomMatrix(3, 4, rng, 0.4);
    Matrix target = randomMatrix(3, 4, rng, 0.4);
    double huber = lossValue(LossKind::Huber, pred, target, 10.0);
    double mse = lossValue(LossKind::MSE, pred, target, 10.0);
    EXPECT_NEAR(huber, mse, 1e-9);
}

TEST(Loss, NameRoundTrip)
{
    for (auto kind : {LossKind::MSE, LossKind::MAE, LossKind::Huber})
        EXPECT_EQ(lossFromName(lossName(kind)), kind);
    EXPECT_THROW(lossFromName("bogus"), FatalError);
}

TEST(Loss, ParallelPathIsBitwiseIdenticalToSerial)
{
    // The parallel elementwise pass must not change a single bit of
    // either the scalar loss (serial reduction in element order) or the
    // gradient, at any lane count — the Phase-1 lane-invariance
    // guarantee depends on it. Sized past the parallel threshold.
    Rng rng(91);
    Matrix pred = randomMatrix(192, 24, rng, 3.0);
    Matrix target = randomMatrix(192, 24, rng, 3.0);

    for (auto kind : {LossKind::MSE, LossKind::MAE, LossKind::Huber}) {
        Matrix gradSerial, gradPar;
        double serial = lossForward(kind, pred, target, 1.0, gradSerial);
        for (size_t lanes : {2u, 5u}) {
            ParallelContext par(lanes);
            double parallel =
                lossForward(kind, pred, target, 1.0, gradPar, &par);
            EXPECT_EQ(serial, parallel) << int(kind) << " @" << lanes;
            ASSERT_EQ(gradSerial.size(), gradPar.size());
            for (size_t i = 0; i < gradSerial.size(); ++i)
                ASSERT_EQ(gradSerial.data()[i], gradPar.data()[i]);
            EXPECT_EQ(lossValue(kind, pred, target, 1.0, &par), serial);
        }
    }
}

TEST(Trainer, ParallelGatherIsBitwiseIdenticalToSerial)
{
    Rng rng(93);
    Matrix x = randomMatrix(300, 17, rng);
    Matrix y = randomMatrix(300, 5, rng);
    MatrixBatchSource src(x, y);

    std::vector<size_t> idx(x.rows());
    std::iota(idx.begin(), idx.end(), size_t(0));
    Rng shuf(7);
    shuf.shuffle(idx);

    Matrix bxS, byS, bxP, byP;
    src.gather(idx, 10, 128, bxS, byS, nullptr);
    ParallelContext par(4);
    src.gather(idx, 10, 128, bxP, byP, &par);
    ASSERT_EQ(bxS.size(), bxP.size());
    for (size_t i = 0; i < bxS.size(); ++i)
        ASSERT_EQ(bxS.data()[i], bxP.data()[i]);
    for (size_t i = 0; i < byS.size(); ++i)
        ASSERT_EQ(byS.data()[i], byP.data()[i]);
}

TEST(Optimizer, SgdDescendsQuadratic)
{
    // Minimize f(w) = 0.5*||w - c||^2 by hand-feeding gradients.
    Matrix w(1, 3), g(1, 3), c(1, 3);
    c.at(0, 0) = 1.0f;
    c.at(0, 1) = -2.0f;
    c.at(0, 2) = 0.5f;
    SgdOptimizer opt(0.1, 0.9);
    opt.attach({&w}, {&g});
    for (int i = 0; i < 200; ++i) {
        for (size_t j = 0; j < 3; ++j)
            g.data()[j] = w.data()[j] - c.data()[j];
        opt.step();
    }
    EXPECT_LT(maxAbsDiff(w, c), 1e-3);
}

TEST(Optimizer, AdamDescendsQuadratic)
{
    Matrix w(1, 3), g(1, 3), c(1, 3);
    c.at(0, 0) = 2.0f;
    c.at(0, 1) = -1.0f;
    c.at(0, 2) = 4.0f;
    AdamOptimizer opt(0.05);
    opt.attach({&w}, {&g});
    for (int i = 0; i < 2000; ++i) {
        for (size_t j = 0; j < 3; ++j)
            g.data()[j] = w.data()[j] - c.data()[j];
        opt.step();
    }
    EXPECT_LT(maxAbsDiff(w, c), 1e-2);
}

TEST(Optimizer, StepDecaySchedule)
{
    StepDecaySchedule sched{1e-2, 0.1, 25};
    EXPECT_DOUBLE_EQ(sched.at(0), 1e-2);
    EXPECT_DOUBLE_EQ(sched.at(24), 1e-2);
    EXPECT_DOUBLE_EQ(sched.at(25), 1e-3);
    EXPECT_DOUBLE_EQ(sched.at(60), 1e-4);
}

TEST(Trainer, LearnsLinearMap)
{
    Rng rng(8);
    // Target function: y = A x with fixed A.
    Matrix a = randomMatrix(2, 6, rng);
    auto makeSet = [&](size_t n) {
        Matrix x = randomMatrix(n, 6, rng);
        Matrix y(n, 2);
        gemm(false, true, 1.0f, x, a, 0.0f, y);
        return std::pair{x, y};
    };
    auto [xTrain, yTrain] = makeSet(512);
    auto [xTest, yTest] = makeSet(128);

    Mlp net(6, {{32, Activation::ReLU}, {2, Activation::Identity}}, rng);
    TrainConfig cfg;
    cfg.epochs = 40;
    cfg.batchSize = 32;
    cfg.loss = LossKind::MSE;
    cfg.schedule = {5e-3, 0.5, 15};
    RegressionTrainer trainer(net, cfg);
    auto reports = trainer.fit(xTrain, yTrain, xTest, yTest, rng);

    ASSERT_EQ(reports.size(), 40u);
    EXPECT_LT(reports.back().trainLoss, 0.05 * reports.front().trainLoss);
    EXPECT_LT(reports.back().testLoss, 0.02);
}

TEST(Trainer, PartialFinalBatchTrains)
{
    // Dataset size deliberately not divisible by the batch size: the
    // final batch of every epoch is partial, exercising the workspace
    // row-count shrink/grow path of gatherRows.
    Rng rng(29);
    Matrix a = randomMatrix(2, 5, rng);
    Matrix x = randomMatrix(131, 5, rng);
    Matrix y(131, 2);
    gemm(false, true, 1.0f, x, a, 0.0f, y);

    Mlp net(5, {{16, Activation::ReLU}, {2, Activation::Identity}}, rng);
    TrainConfig cfg;
    cfg.epochs = 12;
    cfg.batchSize = 32; // 131 = 4 * 32 + 3
    cfg.loss = LossKind::MSE;
    cfg.schedule = {5e-3, 0.5, 6};
    RegressionTrainer trainer(net, cfg);
    Rng trainRng(3);
    auto reports = trainer.fit(x, y, {}, {}, trainRng);
    ASSERT_EQ(reports.size(), 12u);
    for (const auto &r : reports)
        EXPECT_TRUE(std::isfinite(r.trainLoss));
    EXPECT_LT(reports.back().trainLoss, reports.front().trainLoss);
}

TEST(Trainer, PartialFinalBatchDeterministic)
{
    Rng dataRng(31);
    Matrix x = randomMatrix(71, 4, dataRng);
    Matrix y = randomMatrix(71, 1, dataRng, 0.5);

    auto train = [&] {
        Rng rng(9);
        Mlp net(4, {{8, Activation::Tanh}, {1, Activation::Identity}},
                rng);
        TrainConfig cfg;
        cfg.epochs = 5;
        cfg.batchSize = 16; // 71 = 4 * 16 + 7
        cfg.loss = LossKind::MSE;
        RegressionTrainer trainer(net, cfg);
        Rng trainRng(5);
        return trainer.fit(x, y, {}, {}, trainRng);
    };
    auto r1 = train();
    auto r2 = train();
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i)
        EXPECT_DOUBLE_EQ(r1[i].trainLoss, r2[i].trainLoss);
}

TEST(Dense, FusedBiasActivationMatchesUnfused)
{
    Rng rng(41);
    DenseLayer layer(6, 9, Activation::ReLU, rng);
    for (size_t c = 0; c < 9; ++c)
        layer.bias(0, c) = float(rng.uniformReal(-0.5, 0.5));
    Matrix x = randomMatrix(7, 6, rng);

    // Unfused reference: gemm, then bias, then activation.
    Matrix expect(7, 9);
    gemm(false, true, 1.0f, x, layer.weights, 0.0f, expect);
    for (size_t r = 0; r < 7; ++r)
        for (size_t c = 0; c < 9; ++c)
            expect(r, c) += layer.bias(0, c);
    applyActivation(Activation::ReLU, expect);

    const Matrix &got = layer.forward(x);
    EXPECT_EQ(maxAbsDiff(got, expect), 0.0);

    // Backward: fused dBias must equal the column sums of dZ.
    Matrix dOut = randomMatrix(7, 9, rng);
    Matrix dZ = dOut;
    applyActivationGrad(Activation::ReLU, expect, dZ);
    layer.zeroGrad();
    layer.backward(dOut);
    for (size_t c = 0; c < 9; ++c) {
        float colSum = 0.0f;
        for (size_t r = 0; r < 7; ++r)
            colSum += dZ(r, c);
        EXPECT_FLOAT_EQ(layer.dBias(0, c), colSum);
    }
}

TEST(Mlp, ParallelContextBitwiseEqualsSerial)
{
    // A pooled network must produce bitwise-identical outputs and
    // gradients: GEMM threading partitions by disjoint row ranges.
    // Batch and widths sized so the GEMMs cross the threading threshold.
    Rng rng(83);
    Mlp serial(64,
               {{128, Activation::ReLU}, {128, Activation::ReLU},
                {4, Activation::Identity}},
               rng);
    Mlp pooled = serial;
    ParallelContext ctx(3);
    pooled.setParallel(&ctx);

    Rng dataRng(7);
    Matrix x = randomMatrix(600, 64, dataRng);
    Matrix dOut = randomMatrix(600, 4, dataRng);

    const Matrix &outSerial = serial.forward(x);
    Matrix outS = outSerial;
    const Matrix &outPooled = pooled.forward(x);
    EXPECT_EQ(maxAbsDiff(outS, outPooled), 0.0);

    serial.zeroGrad();
    pooled.zeroGrad();
    Matrix gS = serial.backward(dOut);
    Matrix gP = pooled.backward(dOut);
    EXPECT_EQ(maxAbsDiff(gS, gP), 0.0);
    auto gradsS = serial.grads();
    auto gradsP = pooled.grads();
    ASSERT_EQ(gradsS.size(), gradsP.size());
    for (size_t i = 0; i < gradsS.size(); ++i)
        EXPECT_EQ(maxAbsDiff(*gradsS[i], *gradsP[i]), 0.0) << "grad " << i;
}

TEST(Mlp, SaveLoadRoundTrip)
{
    Rng rng(13);
    Mlp net(7, {{9, Activation::ReLU}, {4, Activation::Tanh},
                {2, Activation::Identity}},
            rng);
    Matrix x = randomMatrix(3, 7, rng);
    Matrix before = net.forward(x);

    std::stringstream ss;
    net.save(ss);
    Mlp loaded = Mlp::load(ss);
    EXPECT_EQ(loaded.inputDim(), net.inputDim());
    EXPECT_EQ(loaded.outputDim(), net.outputDim());
    Matrix after = loaded.forward(x);
    EXPECT_LT(maxAbsDiff(before, after), 1e-7);
}

TEST(Mlp, SoftUpdateBlendsParameters)
{
    Rng rng(17);
    Mlp a(3, {{4, Activation::Identity}}, rng);
    Mlp b(3, {{4, Activation::Identity}}, rng);
    Mlp blended = a;
    blended.softUpdateFrom(b, 0.25f);
    // blended = 0.75 a + 0.25 b elementwise on every parameter.
    auto pa = a.params(), pb = b.params(), pc = blended.params();
    for (size_t p = 0; p < pa.size(); ++p)
        for (size_t i = 0; i < pa[p]->size(); ++i)
            EXPECT_NEAR(pc[p]->data()[i],
                        0.75f * pa[p]->data()[i] + 0.25f * pb[p]->data()[i],
                        1e-6);
}

TEST(Mlp, CopyParamsMakesIndependentClone)
{
    Rng rng(19);
    Mlp a(2, {{3, Activation::Identity}}, rng);
    Mlp b(2, {{3, Activation::Identity}}, rng);
    b.copyParamsFrom(a);
    Matrix x = randomMatrix(1, 2, rng);
    Matrix ya = a.forward(x);
    Matrix yb = b.forward(x);
    EXPECT_LT(maxAbsDiff(ya, yb), 1e-7);
    // Mutating the copy must not touch the original.
    b.params()[0]->data()[0] += 1.0f;
    Matrix ya2 = a.forward(x);
    EXPECT_LT(maxAbsDiff(ya, ya2), 1e-7);
}

} // namespace
} // namespace mm
