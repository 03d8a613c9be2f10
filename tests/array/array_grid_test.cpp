// ArrayGrid: per-site fabrication streams, functionalization layout and
// determinism of the grid build.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "array/grid.hpp"
#include "bio/functionalization.hpp"
#include "exec/threadpool.hpp"
#include "fab/montecarlo.hpp"
#include "mech/geometry.hpp"

namespace {

using namespace cbs;

fab::ProcessMonteCarlo make_mc() {
    return fab::ProcessMonteCarlo(mech::resonant_default(), fab::KohEtchConfig{},
                                  fab::ProcessVariation{}, fab::EtchMode::electrochemical_stop);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ArrayGrid, BuildIsBitIdenticalAcrossThreadCounts) {
    const auto mc = make_mc();
    array::ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 6;
    cfg.seed = 11;
    const array::ArrayGrid serial(cfg, mc, nullptr);
    for (std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        exec::ThreadPool pool(threads);
        const array::ArrayGrid parallel(cfg, mc, &pool);
        ASSERT_EQ(serial.site_count(), parallel.site_count());
        for (std::size_t i = 0; i < serial.site_count(); ++i) {
            const auto& a = serial.site_at(i);
            const auto& b = parallel.site_at(i);
            EXPECT_EQ(a.functional, b.functional) << "site " << i;
            EXPECT_EQ(a.loop_seed, b.loop_seed) << "site " << i;
            EXPECT_EQ(bits(a.sample.resonance.value()), bits(b.sample.resonance.value()))
                << "site " << i;
        }
    }
}

TEST(ArrayGrid, RowCoatingsAndReferenceColumns) {
    const auto mc = make_mc();
    array::ArrayConfig cfg;
    cfg.rows = 3;
    cfg.cols = 4;
    cfg.seed = 5;
    cfg.reference_columns = {3};
    cfg.row_coatings = {bio::antibody_coating(bio::library::igg_antigen()), bio::dna_coating()};
    const array::ArrayGrid grid(cfg, mc, nullptr);
    // Rows cycle the coating list; reference columns override with the
    // blocked coating regardless of row.
    for (std::size_t r = 0; r < cfg.rows; ++r) {
        for (std::size_t c = 0; c < cfg.cols; ++c) {
            const auto& site = grid.site(r, c);
            EXPECT_EQ(site.row, r);
            EXPECT_EQ(site.col, c);
            if (c == 3) {
                EXPECT_TRUE(site.reference);
                EXPECT_DOUBLE_EQ(site.coating.capture_efficiency,
                                 bio::reference_coating().capture_efficiency);
            } else {
                EXPECT_FALSE(site.reference);
                const auto& expected = cfg.row_coatings[r % cfg.row_coatings.size()];
                EXPECT_DOUBLE_EQ(site.coating.stress_at_full_coverage.value(),
                                 expected.stress_at_full_coverage.value());
            }
        }
    }
}

TEST(ArrayGrid, OneByNSitesDrawPerIndexStreams) {
    // Site i of a 1×N grid must draw the exact fabrication stream
    // Rng::for_stream(seed, i) and reserve the next raw word as the loop
    // seed (== rng.fork()).
    const auto mc = make_mc();
    array::ArrayConfig cfg;
    cfg.rows = 1;
    cfg.cols = 5;
    cfg.seed = 2026;
    const array::ArrayGrid grid(cfg, mc, nullptr);
    for (std::size_t i = 0; i < cfg.cols; ++i) {
        Rng rng = Rng::for_stream(cfg.seed, i);
        const auto sample = mc.sample(rng);
        const auto& site = grid.site_at(i);
        EXPECT_EQ(site.functional, sample.functional);
        EXPECT_EQ(bits(site.sample.resonance.value()), bits(sample.resonance.value()));
        EXPECT_EQ(site.loop_seed, rng.raw_word());
    }
}

TEST(ArrayGrid, BindingFollowsPerSiteCoating) {
    const auto mc = make_mc();
    array::ArrayConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.seed = 3;
    cfg.reference_columns = {1};
    cfg.bridge_mismatch_sigma = 0.0;  // voltages purely stress-induced
    array::ArrayGrid grid(cfg, mc, nullptr);
    ASSERT_EQ(grid.functional_count(), 4u);  // pinned for this seed
    grid.set_concentration(MolarConcentration{1e-8});
    grid.advance_binding(Time{30.0});
    // Active sites bind their target; the blocked reference binds only the
    // nonspecific background, so its coverage (and voltage) stays lower.
    const auto& active = grid.site(0, 0);
    const auto& reference = grid.site(0, 1);
    EXPECT_GT(active.theta, 0.0);
    EXPECT_GE(reference.theta, 0.0);
    EXPECT_GT(std::abs(grid.site_source_voltage(0, 0)),
              std::abs(grid.site_source_voltage(0, 1)));
}

}  // namespace
