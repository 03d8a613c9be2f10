// Sampled-data behavioural circuit blocks.
//
// The readout chains of Figures 4 and 5 are modelled as chains of blocks
// processing one voltage sample per tick at a fixed sample rate. Inner-loop
// samples are raw doubles (volts); typed quantities appear at configuration
// boundaries.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circ/fuse.hpp"
#include "circ/linear_spec.hpp"
#include "obs/probe.hpp"
#include "util/expect.hpp"

namespace cbs::circ {

/// One-input one-output sample processor.
class Block {
public:
    virtual ~Block() = default;

    /// Processes one sample (volts in, volts out) at the block's sample rate.
    virtual double process(double in) = 0;

    /// Fills `spec` with this block's exact linear kernel description and
    /// returns true, or returns false for blocks that are not linear in
    /// their input (or choose to stay opaque). The spec's coefficients
    /// must be those of process()'s own kernel (the per-kind recurrences
    /// in linear_spec.hpp), and its state pointers must alias the block's
    /// live state. Called once per batch by the chain compiler (CBS_FUSE,
    /// DESIGN.md §11).
    virtual bool linear_spec(LinearSpec& spec) {
        (void)spec;
        return false;
    }

    /// Processes a batch of consecutive samples in place. Contract: the
    /// result is bit-identical to calling `process` on each element in
    /// order, for every batch size including zero (an empty span is a
    /// no-op). The default does exactly that; hot blocks override it with
    /// loops that keep their scalar state in registers and hoist
    /// per-sample invariants (one virtual dispatch per batch instead of
    /// per sample).
    virtual void process_block(std::span<double> inout) {
        for (double& v : inout) v = process(v);
    }

    /// Returns internal state to power-up conditions.
    virtual void reset() {}
};

/// Serial composition of blocks (the "chain" of a readout channel).
class Chain final : public Block {
public:
    Chain() = default;

    /// Appends a block; returns a reference for later configuration.
    template <typename T, typename... Args>
    T& emplace(Args&&... args) {
        auto block = std::make_unique<T>(std::forward<Args>(args)...);
        CBS_EXPECTS(block != nullptr);  // same contract as append
        T& ref = *block;
        blocks_.push_back(std::move(block));
        if (!probe_prefix_.empty()) taps_.push_back(make_tap(blocks_.size() - 1));
        fuse_plan_.reset();
        return ref;
    }

    void append(std::unique_ptr<Block> block) {
        CBS_EXPECTS(block != nullptr);
        blocks_.push_back(std::move(block));
        if (!probe_prefix_.empty()) taps_.push_back(make_tap(blocks_.size() - 1));
        fuse_plan_.reset();
    }

    [[nodiscard]] std::size_t size() const { return blocks_.size(); }

    /// Attaches (and force-arms) one obs::Probe per block boundary, named
    /// `<prefix>.b<i>` for the output of block i — the software equivalent
    /// of routing every internal node to the chip's analog probe mux.
    /// Blocks appended later get their tap on append. Probes only read the
    /// stream, so processing stays bit-identical with probes attached.
    void attach_probes(std::string_view prefix) {
        CBS_EXPECTS(!prefix.empty());
        probe_prefix_ = std::string(prefix);
        taps_.clear();
        for (std::size_t i = 0; i < blocks_.size(); ++i) taps_.push_back(make_tap(i));
        fuse_plan_.reset();
    }

    /// Drops the boundary taps (the registry keeps the probes and their
    /// recorded history; they just stop receiving samples from this chain).
    void detach_probes() {
        probe_prefix_.clear();
        taps_.clear();
        fuse_plan_.reset();
    }

    [[nodiscard]] bool probes_attached() const { return !taps_.empty(); }

    double process(double in) override {
        double v = in;
        if (taps_.empty()) {
            for (auto& b : blocks_) v = b->process(v);
            return v;
        }
        for (std::size_t i = 0; i < blocks_.size(); ++i) {
            v = blocks_[i]->process(v);
            taps_[i]->tap(v);
        }
        return v;
    }

    /// Runs the whole batch through each block in turn. Because every
    /// block's state depends only on its own input stream, block-by-block
    /// traversal produces the same bits as sample-by-sample traversal —
    /// while paying one virtual call per block per batch. Boundary taps
    /// see each block's completed batch (tap_block: one gate per batch).
    /// Under CBS_FUSE=on runs of linear blocks execute through the
    /// compiled form instead (dense state-space recurrence, tolerance
    /// contract) — armed probe boundaries and nonlinear blocks split the
    /// fused segments (DESIGN.md §11).
    void process_block(std::span<double> inout) override {
        if (fuse_mode() == FuseMode::simd &&
            fused_chain_process_block(blocks_, taps_, fuse_plan_, inout)) {
            return;
        }
        if (taps_.empty()) {
            for (auto& b : blocks_) b->process_block(inout);
            return;
        }
        for (std::size_t i = 0; i < blocks_.size(); ++i) {
            blocks_[i]->process_block(inout);
            taps_[i]->tap_block(inout);
        }
    }

    void reset() override {
        for (auto& b : blocks_) b->reset();
    }

private:
    obs::Probe* make_tap(std::size_t index) {
        obs::Probe* p =
            obs::ProbeRegistry::instance().probe(probe_prefix_ + ".b" + std::to_string(index));
        p->set_armed(true);
        return p;
    }

    std::vector<std::unique_ptr<Block>> blocks_;
    std::string probe_prefix_;
    std::vector<obs::Probe*> taps_;  // parallel to blocks_ when attached
    // Compiled-form cache (CBS_FUSE); rebuilt lazily after any structural
    // or probe-attachment change.
    std::shared_ptr<FusePlan> fuse_plan_;
};

/// Fixed multiplicative gain (ideal).
class GainBlock final : public Block {
public:
    explicit GainBlock(double gain) : gain_(gain) {}
    double process(double in) override { return gain_ * in; }
    bool linear_spec(LinearSpec& spec) override {
        spec = LinearSpec{};
        spec.kind = LinearSpec::Kind::gain;
        spec.c0 = gain_;
        return true;
    }
    void process_block(std::span<double> inout) override {
        const double g = gain_;
        for (double& v : inout) v = g * v;
    }
    void set_gain(double g) { gain_ = g; }
    [[nodiscard]] double gain() const { return gain_; }

private:
    double gain_;
};

}  // namespace cbs::circ
