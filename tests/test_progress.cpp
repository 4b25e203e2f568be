#include <gtest/gtest.h>

#include "src/metrics/progress.hpp"

/**
 * @file
 * ProgressMeter ETA math, driven through the explicit-clock entry point
 * (pointDoneAt) so no wall time is involved. The meter prints to stderr
 * only; these tests assert on etaSeconds().
 */

namespace bowsim::metrics {
namespace {

TEST(ProgressMeter, EtaIsZeroBeforeFirstAndAfterLastPoint)
{
    ProgressMeter m;
    m.start("unit", 3);
    EXPECT_EQ(m.etaSeconds(), 0.0);
    m.pointDoneAt(100, 1.0);
    EXPECT_GT(m.etaSeconds(), 0.0);
    m.pointDoneAt(100, 2.0);
    m.pointDoneAt(100, 3.0);
    EXPECT_EQ(m.etaSeconds(), 0.0);
    m.finish();
}

TEST(ProgressMeter, SteadyPaceProjectsLinearly)
{
    // Points completing exactly 2 s apart: every gap equals the EWMA,
    // so the ETA is 2 s per remaining point, no matter the history.
    ProgressMeter m;
    m.start("unit", 5);
    for (int i = 1; i <= 3; ++i)
        m.pointDoneAt(0, 2.0 * i);
    EXPECT_NEAR(m.etaSeconds(), 2.0 * 2.0, 1e-12);
    m.finish();
}

TEST(ProgressMeter, EwmaTracksSlowdown)
{
    // 1-s gaps followed by 5-s gaps: the EWMA must move toward 5 s —
    // above the overall mean a naive elapsed/done estimate would use —
    // but not all the way on the first slow point.
    ProgressMeter m;
    m.start("unit", 10);
    double now = 0.0;
    for (int i = 0; i < 4; ++i)
        m.pointDoneAt(0, now += 1.0);
    const double before = m.etaSeconds() / 6.0;  // per-point estimate
    EXPECT_NEAR(before, 1.0, 1e-12);
    for (int i = 0; i < 2; ++i)
        m.pointDoneAt(0, now += 5.0);
    const double after = m.etaSeconds() / 4.0;
    // After two 5-s gaps at alpha 0.3: 1 -> 2.2 -> 3.04.
    EXPECT_GT(after, 2.5);
    EXPECT_LT(after, 5.0);
    const double naive = now / 6.0;  // elapsed/done = 14/6 = 2.33
    EXPECT_GT(after, naive) << "EWMA should weight the recent slowdown";
    m.finish();
}

TEST(ProgressMeter, OutOfOrderTimestampsDoNotGoNegative)
{
    ProgressMeter m;
    m.start("unit", 4);
    m.pointDoneAt(0, 2.0);
    // A worker that grabbed its timestamp before a faster peer reports
    // an earlier time; the gap clamps to zero instead of going negative.
    m.pointDoneAt(0, 1.5);
    EXPECT_GE(m.etaSeconds(), 0.0);
    m.finish();
}

TEST(ProgressMeter, IgnoresPointsWhenInactive)
{
    ProgressMeter m;
    m.pointDoneAt(0, 1.0);  // never started: no-op, no crash
    EXPECT_EQ(m.etaSeconds(), 0.0);
}

}  // namespace
}  // namespace bowsim::metrics
