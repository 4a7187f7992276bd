// djstar/engine/djstar_graph.hpp
// The canonical 67-node DJ Star task graph (paper Fig. 3 / §IV).
//
// Topology (sections in parentheses; -> are dependency edges):
//
//   per deck X in {A,B,C,D}  (section deckX):
//     SP_X1..SP_X4   sample players          (sources)
//     UTIL_X1..X4    control utilities        (sources, no audio)
//     FX_X1          effect 1, sums SP_X1..4
//     FX_X2..FX_X4   chained effects
//     CH_X           channel strip (filter, EQ, fader)  <- FX_X4
//     METER_X        channel meter                      <- CH_X
//   master section (section master):
//     SAMPLER        audio sampler (source)
//     MIXER          <- CH_A..CH_D, SAMPLER
//     MASTER         master bus                          <- MIXER
//     CUE            pre-mixer cue sum                   <- CH_A..CH_D
//     MONITOR        mono booth monitor                  <- CUE
//     RECORD         record buffer (comp+limit+clip)     <- MASTER
//     AUDIO_OUT      sound card output (limit+clip)      <- MASTER
//     HEADPHONE      cue/master blend                    <- CUE, MASTER
//     MASTER_METER                                        <- MASTER
//     ANALYZER       spectrum tap                         <- MIXER
//     BEATGRID       master tempo accounting              <- MIXER
//
// Totals: 67 nodes, of which 33 are sources (16 SP + 16 UTIL + SAMPLER) —
// matching the paper's simulated max concurrency of 33 — and the longest
// path runs SP -> FX*4 -> CH -> MIXER -> MASTER -> AUDIO_OUT.
//
// Built with the engine's decks, the graph also carries one job per deck
// after the paper's 67 nodes (section deckX, ids 67..70):
//   DECK_X         TP + GP of deck X (Deck::process_timecode, preprocess)
//                  -> SP_X1..SP_X4
// so the team runs the four decks' TP and GP in parallel, in the same
// generation as the graph (71 nodes, 21 sources). The paper ran TP and
// GP as sequential phases outside its graph; the 67-node graph without
// decks stays its model (simulator, Fig. 4, Table I, Fig. 12).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "djstar/core/access_check.hpp"
#include "djstar/core/graph.hpp"
#include "djstar/engine/nodes.hpp"
#include "djstar/support/time.hpp"

namespace djstar::engine {

class Deck;  // engine/deck.hpp

/// Nodes of the paper's graph (ids 0..66); deck jobs follow them.
inline constexpr std::size_t kPaperNodes = 67;

/// Role of a node in the canonical graph (drives the reference-duration
/// table and the benches' reporting).
enum class NodeKind {
  kSamplePlayer,
  kUtility,
  kDeckEffectA,   ///< deck A effects are the heavier "active deck" chain
  kDeckEffect,    ///< decks B/C/D
  kChannel,
  kDeckMeter,
  kSampler,
  kMixer,
  kMasterBus,
  kCue,
  kMonitor,
  kRecord,
  kAudioOut,
  kHeadphone,
  kMasterMeter,
  kAnalyzer,
  kBeatgrid,
  kDeckJob,  ///< one deck's TP + GP (not a node of the paper's graph)
};

/// Paper-scale mean duration (microseconds) for a node kind, calibrated
/// so that total work ~= 1.08 ms and the critical path ~= 0.29 ms
/// (Table I sequential row / §IV simulation; see EXPERIMENTS.md). 0 for
/// a deck job: the paper's model has no TP or GP node.
double reference_duration_us(NodeKind kind) noexcept;

/// How a node may be shed under load (the supervisor's kBypassFx rung).
enum class DegradeTier : std::uint8_t {
  kEssential,  ///< must run every cycle (audio path, mixer, out)
  kFxBypass,   ///< deck effect: run its bypass form (audio flows, no DSP)
  kSinkSkip,   ///< GUI/accounting sink: safe to skip entirely
};

/// When one deck job ran its two phases in the last cycle: TP from
/// tp_begin to gp_begin, GP from gp_begin to gp_end.
struct DeckJobTimes {
  support::Clock::time_point tp_begin, gp_begin, gp_end;
};

/// The built graph plus everything it references. Move-only; node
/// processors live behind stable unique_ptr addresses because the work
/// lambdas capture raw pointers to them.
class DjStarGraph {
 public:
  /// Builds the graph over the engine's four decks: the sample players
  /// read each deck's input(), and deck job DECK_X fills it (71 nodes).
  /// Without decks (all nullptr) the sample players read internal silent
  /// buffers and the graph is the paper's 67 nodes, for scheduling-only
  /// experiments.
  explicit DjStarGraph(std::array<Deck*, 4> decks = {});

  DjStarGraph(DjStarGraph&&) = default;

  const core::TaskGraph& graph() const noexcept { return graph_; }
  core::TaskGraph& graph() noexcept { return graph_; }

  /// Node kind per node id.
  NodeKind kind(core::NodeId n) const noexcept { return kinds_[n]; }

  /// Degradation tier per node id (what the supervisor may shed).
  DegradeTier degrade_tier(core::NodeId n) const noexcept {
    return tiers_[n];
  }

  /// Replacement work for a kFxBypass node: routes audio through without
  /// the effect DSP. Returns an empty function for other tiers.
  core::WorkFn bypass_work(core::NodeId n) const;

  /// Corrupt the final output packet with NaNs (fault injection's
  /// kNanOutput lands here, after the cycle, so filter state in the
  /// graph is never contaminated — see engine/supervisor.hpp).
  void poison_output() noexcept;

  /// Paper-scale mean durations aligned with node ids.
  std::vector<double> reference_durations() const;

  /// The final output buffer (what goes to the sound card).
  const audio::AudioBuffer& output() const noexcept {
    return audio_out_->output();
  }

  // ---- named access for examples / parameter automation ----
  EffectNode& effect(unsigned deck, unsigned fx) noexcept {
    return *effects_[deck * 4 + fx];
  }
  ChannelNode& channel(unsigned deck) noexcept { return *channels_[deck]; }
  MixerNode& mixer() noexcept { return *mixer_; }
  MasterBusNode& master() noexcept { return *master_; }
  SamplerNode& sampler() noexcept { return *sampler_; }
  const MeterNode& deck_meter(unsigned deck) const noexcept {
    return *deck_meters_[deck];
  }
  const RecordNode& record() const noexcept { return *record_; }
  const CueNode& cue() const noexcept { return *cue_; }
  const MonitorNode& monitor() const noexcept { return *monitor_; }
  HeadphoneNode& headphone() noexcept { return *headphone_; }
  CueNode& cue_control() noexcept { return *cue_; }
  const MeterNode& master_meter() const noexcept { return *master_meter_; }
  const AnalyzerNode& analyzer() const noexcept { return *analyzer_; }

  core::NodeId audio_out_node() const noexcept { return audio_out_id_; }

  /// Ids of the deck jobs, DECK_A..DECK_D (empty without decks).
  std::span<const core::NodeId> deck_jobs() const noexcept {
    return deck_jobs_;
  }
  /// Phase times of deck job `d` in the last cycle it ran.
  const DeckJobTimes& deck_job_times(unsigned d) const noexcept {
    return job_times_[d].t;
  }

  /// Declared buffer accesses of every node, for static race checking
  /// (core::AccessRegistry::check must return no hazards — tested).
  const core::AccessRegistry& accesses() const noexcept { return registry_; }

 private:
  void add_deck_jobs(const std::array<Deck*, 4>& decks,
                     const std::array<std::array<core::NodeId, 4>, 4>& sp_ids);
  void declare_accesses(
      const std::array<const audio::AudioBuffer*, 4>& deck_inputs);

  core::TaskGraph graph_;
  std::vector<NodeKind> kinds_;
  std::vector<DegradeTier> tiers_;
  std::vector<EffectNode*> node_effect_;  // id -> effect, null elsewhere
  core::AccessRegistry registry_;

  // Fallback silent inputs when a deck pointer is null.
  std::array<std::unique_ptr<audio::AudioBuffer>, 4> silent_;

  std::vector<std::unique_ptr<SamplePlayerNode>> players_;  // 16
  std::vector<std::unique_ptr<UtilityNode>> utils_;         // 16
  std::vector<std::unique_ptr<EffectNode>> effects_;        // 16
  std::array<std::unique_ptr<ChannelNode>, 4> channels_;
  std::array<std::unique_ptr<MeterNode>, 4> deck_meters_;
  std::unique_ptr<SamplerNode> sampler_;
  std::unique_ptr<MixerNode> mixer_;
  std::unique_ptr<MasterBusNode> master_;
  std::unique_ptr<CueNode> cue_;
  std::unique_ptr<MonitorNode> monitor_;
  std::unique_ptr<RecordNode> record_;
  std::unique_ptr<AudioOutNode> audio_out_;
  std::unique_ptr<HeadphoneNode> headphone_;
  std::unique_ptr<MeterNode> master_meter_;
  std::unique_ptr<AnalyzerNode> analyzer_;
  std::unique_ptr<UtilityNode> beatgrid_;

  // Written by the deck jobs on worker threads, read between cycles; one
  // cache line each.
  struct alignas(64) JobTimesSlot {
    DeckJobTimes t;
  };
  std::unique_ptr<JobTimesSlot[]> job_times_;
  std::vector<core::NodeId> deck_jobs_;

  core::NodeId audio_out_id_ = core::kInvalidNode;
};

/// Structure-plus-reference-durations for scheduling simulation without
/// any DSP (what the paper fed to RESCON).
struct ReferenceGraph {
  DjStarGraph graph;  ///< no-op inputs
  std::vector<double> durations_us;
};
ReferenceGraph make_reference_graph();

}  // namespace djstar::engine
