// Batched daq entries: feed_block must reproduce the per-sample feed
// sequence exactly, no matter where the stream is split into batches — in
// particular when a zero crossing's two bracketing samples land in
// different batches, the interpolated edge timestamp (and hence every
// derived frequency measurement) must be bit-identical.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "circ/filters.hpp"
#include "daq/counter.hpp"
#include "util/constants.hpp"
#include "util/units.hpp"

namespace {

using namespace cbs;
using namespace cbs::daq;

struct ToneStream {
    std::vector<double> t;
    std::vector<double> v;
};

/// ~1 kHz tone sampled at 40 kHz: crossings fall between samples, so every
/// edge timestamp comes from the interpolator.
ToneStream make_tone(std::size_t n, double f = 997.0, double fs = 40e3) {
    ToneStream s;
    s.t.resize(n);
    s.v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        s.t[i] = static_cast<double>(i) / fs;
        s.v[i] = std::sin(2.0 * constants::pi * f * s.t[i]);
    }
    return s;
}

void expect_same_measurements(const std::vector<FrequencyMeasurement>& a,
                              const std::vector<FrequencyMeasurement>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].frequency_hz, b[i].frequency_hz) << "measurement " << i;
        EXPECT_EQ(a[i].gate_start, b[i].gate_start) << "measurement " << i;
        EXPECT_EQ(a[i].gate_end, b[i].gate_end) << "measurement " << i;
        EXPECT_EQ(a[i].edges, b[i].edges) << "measurement " << i;
    }
}

template <typename Counter>
void check_counter_split_invariance() {
    const auto tone = make_tone(4000);
    // Reference: one sample at a time.
    Counter reference(Time{20e-3}, 0.05);
    std::vector<FrequencyMeasurement> ref_out;
    for (std::size_t i = 0; i < tone.t.size(); ++i) {
        if (auto m = reference.feed(tone.t[i], tone.v[i])) ref_out.push_back(*m);
    }
    ASSERT_GE(ref_out.size(), 2u) << "test stream must complete multiple gates";
    // Batched at several sizes, including a split at every possible phase
    // relative to the tone period (batch 7 is coprime with the ~40-sample
    // period, so some batch boundary falls inside every crossing interval).
    for (const std::size_t batch : {1, 2, 7, 64, 1024}) {
        Counter counter(Time{20e-3}, 0.05);
        std::vector<FrequencyMeasurement> out;
        const std::span<const double> ts(tone.t);
        const std::span<const double> vs(tone.v);
        for (std::size_t i = 0; i < ts.size(); i += batch) {
            const std::size_t n = std::min(batch, ts.size() - i);
            counter.feed_block(ts.subspan(i, n), vs.subspan(i, n), out);
        }
        expect_same_measurements(ref_out, out);
    }
}

TEST(CounterFeedBlock, GatedCounterSplitInvariant) {
    check_counter_split_invariance<GatedCounter>();
}

TEST(CounterFeedBlock, ReciprocalCounterSplitInvariant) {
    check_counter_split_invariance<ReciprocalCounter>();
}

TEST(CounterFeedBlock, CrossingSplitExactlyBetweenTwoBatches) {
    // Every possible two-batch split of a short tone — including the splits
    // that land between a crossing's two bracketing samples — must yield
    // the same measurement (same edge count, same interpolated timestamps,
    // hence bit-identical frequency) as the unsplit per-sample reference.
    const auto tone = make_tone(200, 997.0, 40e3);
    std::vector<FrequencyMeasurement> reference;
    {
        ReciprocalCounter counter(Time{4e-3}, 0.05);
        for (std::size_t i = 0; i < tone.t.size(); ++i) {
            if (auto m = counter.feed(tone.t[i], tone.v[i])) reference.push_back(*m);
        }
    }
    ASSERT_GE(reference.size(), 1u);
    for (std::size_t split = 1; split < tone.t.size(); ++split) {
        ReciprocalCounter counter(Time{4e-3}, 0.05);
        std::vector<FrequencyMeasurement> out;
        const std::span<const double> ts(tone.t);
        const std::span<const double> vs(tone.v);
        counter.feed_block(ts.first(split), vs.first(split), out);
        counter.feed_block(ts.subspan(split), vs.subspan(split), out);
        expect_same_measurements(reference, out);
    }
}

}  // namespace
