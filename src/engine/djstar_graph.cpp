#include "djstar/engine/djstar_graph.hpp"

#include <algorithm>
#include <limits>

#include "djstar/engine/deck.hpp"
#include "djstar/support/assert.hpp"

namespace djstar::engine {

double reference_duration_us(NodeKind kind) noexcept {
  // Calibration (see DESIGN.md §2 and EXPERIMENTS.md):
  //   sum over all 67 nodes ~= 1082 us  (paper sequential: 1078.5 us)
  //   critical path SP+4*FX_A+CH+MIXER+MASTER+OUT ~= 285 us (paper: 295)
  switch (kind) {
    case NodeKind::kSamplePlayer: return 9.0;
    case NodeKind::kUtility: return 2.0;
    case NodeKind::kDeckEffectA: return 56.0;
    case NodeKind::kDeckEffect: return 45.3;
    case NodeKind::kChannel: return 12.0;
    case NodeKind::kDeckMeter: return 2.0;
    case NodeKind::kSampler: return 6.0;
    case NodeKind::kMixer: return 10.0;
    case NodeKind::kMasterBus: return 12.0;
    case NodeKind::kCue: return 8.0;
    case NodeKind::kMonitor: return 6.0;
    case NodeKind::kRecord: return 12.0;
    case NodeKind::kAudioOut: return 18.0;
    case NodeKind::kHeadphone: return 4.0;
    case NodeKind::kMasterMeter: return 2.0;
    case NodeKind::kAnalyzer: return 3.0;
    case NodeKind::kBeatgrid: return 2.0;
    case NodeKind::kDeckJob: return 0.0;
  }
  return 1.0;
}

namespace {

/// Effect chains per deck: deck A carries the heavier "active deck"
/// program (echo -> flanger -> spectral -> softclip).
constexpr EffectKind kChains[4][4] = {
    {EffectKind::kEcho, EffectKind::kFlanger, EffectKind::kSpectral,
     EffectKind::kSoftClip},
    {EffectKind::kPhaser, EffectKind::kBitcrusher, EffectKind::kEcho,
     EffectKind::kCompressor},
    {EffectKind::kChorus, EffectKind::kReverb, EffectKind::kWaveshaper,
     EffectKind::kGate},
    {EffectKind::kFlanger, EffectKind::kEcho, EffectKind::kPhaser,
     EffectKind::kSoftClip},
};

constexpr const char* kDeckNames[4] = {"A", "B", "C", "D"};

}  // namespace

DjStarGraph::DjStarGraph(std::array<Deck*, 4> decks) {
  using core::NodeId;

  const bool with_decks = decks[0] != nullptr;
  std::array<const audio::AudioBuffer*, 4> deck_inputs{};
  for (unsigned d = 0; d < 4; ++d) {
    DJSTAR_ASSERT_MSG((decks[d] != nullptr) == with_decks,
                      "pass all four decks or none");
    if (with_decks) {
      deck_inputs[d] = &decks[d]->input();
    } else {
      silent_[d] = std::make_unique<audio::AudioBuffer>(2, audio::kBlockSize);
      deck_inputs[d] = silent_[d].get();
    }
  }

  auto add = [&](const std::string& name, NodeKind kind,
                 const std::string& section, core::WorkFn fn) {
    const NodeId id = graph_.add_node(name, std::move(fn), section);
    kinds_.push_back(kind);
    return id;
  };

  std::array<NodeId, 4> ch_ids{};
  std::array<const audio::AudioBuffer*, 4> ch_bufs{};
  std::array<std::array<NodeId, 4>, 4> sp_ids{};  // per deck

  for (unsigned d = 0; d < 4; ++d) {
    const std::string deck = std::string("deck") + kDeckNames[d];

    // Sample players (sources).
    std::array<const audio::AudioBuffer*, 4> sp_bufs{};
    for (unsigned s = 0; s < 4; ++s) {
      players_.push_back(
          std::make_unique<SamplePlayerNode>(deck_inputs[d], s));
      SamplePlayerNode* p = players_.back().get();
      sp_bufs[s] = &p->output();
      sp_ids[d][s] = add(
          "SP_" + std::string(kDeckNames[d]) + std::to_string(s + 1),
          NodeKind::kSamplePlayer, deck, [p] { p->process(); });
    }

    // Control utilities (sources, no audio).
    for (unsigned u = 0; u < 4; ++u) {
      utils_.push_back(std::make_unique<UtilityNode>(d * 4 + u));
      UtilityNode* un = utils_.back().get();
      add("UTIL_" + std::string(kDeckNames[d]) + std::to_string(u + 1),
          NodeKind::kUtility, deck, [un] { un->process(); });
    }

    // Effect chain FX1..FX4 (FX1 sums the sample players).
    const NodeKind fx_kind =
        d == 0 ? NodeKind::kDeckEffectA : NodeKind::kDeckEffect;
    NodeId prev = core::kInvalidNode;
    const audio::AudioBuffer* prev_buf = nullptr;
    for (unsigned f = 0; f < 4; ++f) {
      if (f == 0) {
        effects_.push_back(
            std::make_unique<EffectNode>(kChains[d][f], sp_bufs));
      } else {
        effects_.push_back(
            std::make_unique<EffectNode>(kChains[d][f], prev_buf));
      }
      EffectNode* e = effects_.back().get();
      const NodeId fx = add(
          "FX_" + std::string(kDeckNames[d]) + std::to_string(f + 1), fx_kind,
          deck, [e] { e->process(); });
      if (f == 0) {
        for (NodeId sp : sp_ids[d]) graph_.add_edge(sp, fx);
      } else {
        graph_.add_edge(prev, fx);
      }
      prev = fx;
      prev_buf = &e->output();
    }

    // Channel strip.
    channels_[d] = std::make_unique<ChannelNode>(prev_buf);
    ChannelNode* ch = channels_[d].get();
    ch_ids[d] = add("CH_" + std::string(kDeckNames[d]), NodeKind::kChannel,
                    deck, [ch] { ch->process(); });
    graph_.add_edge(prev, ch_ids[d]);
    ch_bufs[d] = &ch->output();

    // Channel meter.
    deck_meters_[d] = std::make_unique<MeterNode>(ch_bufs[d]);
    MeterNode* m = deck_meters_[d].get();
    const NodeId meter = add("METER_" + std::string(kDeckNames[d]),
                             NodeKind::kDeckMeter, deck, [m] { m->process(); });
    graph_.add_edge(ch_ids[d], meter);
  }

  const std::string master_sec = "master";

  // Sampler (source).
  sampler_ = std::make_unique<SamplerNode>();
  SamplerNode* sam = sampler_.get();
  const core::NodeId sampler_id =
      add("SAMPLER", NodeKind::kSampler, master_sec, [sam] { sam->process(); });

  // Mixer.
  mixer_ = std::make_unique<MixerNode>(ch_bufs, &sampler_->output());
  MixerNode* mx = mixer_.get();
  const core::NodeId mixer_id =
      add("MIXER", NodeKind::kMixer, master_sec, [mx] { mx->process(); });
  for (auto c : ch_ids) graph_.add_edge(c, mixer_id);
  graph_.add_edge(sampler_id, mixer_id);

  // Master bus.
  master_ = std::make_unique<MasterBusNode>(&mixer_->output());
  MasterBusNode* mb = master_.get();
  const core::NodeId master_id =
      add("MASTER", NodeKind::kMasterBus, master_sec, [mb] { mb->process(); });
  graph_.add_edge(mixer_id, master_id);

  // Cue bus (pre-mixer).
  cue_ = std::make_unique<CueNode>(ch_bufs);
  CueNode* cu = cue_.get();
  const core::NodeId cue_id =
      add("CUE", NodeKind::kCue, master_sec, [cu] { cu->process(); });
  for (auto c : ch_ids) graph_.add_edge(c, cue_id);

  // Monitor.
  monitor_ = std::make_unique<MonitorNode>(&cue_->output());
  MonitorNode* mo = monitor_.get();
  const core::NodeId mon_id =
      add("MONITOR", NodeKind::kMonitor, master_sec, [mo] { mo->process(); });
  graph_.add_edge(cue_id, mon_id);

  // Record buffer.
  record_ = std::make_unique<RecordNode>(&master_->output());
  RecordNode* rec = record_.get();
  const core::NodeId rec_id =
      add("RECORD", NodeKind::kRecord, master_sec, [rec] { rec->process(); });
  graph_.add_edge(master_id, rec_id);

  // Audio out.
  audio_out_ = std::make_unique<AudioOutNode>(&master_->output());
  AudioOutNode* ao = audio_out_.get();
  audio_out_id_ =
      add("AUDIO_OUT", NodeKind::kAudioOut, master_sec, [ao] { ao->process(); });
  graph_.add_edge(master_id, audio_out_id_);

  // Headphone blend.
  headphone_ = std::make_unique<HeadphoneNode>(&cue_->output(),
                                               &master_->output());
  HeadphoneNode* hp = headphone_.get();
  const core::NodeId hp_id = add("HEADPHONE", NodeKind::kHeadphone, master_sec,
                                 [hp] { hp->process(); });
  graph_.add_edge(cue_id, hp_id);
  graph_.add_edge(master_id, hp_id);

  // Master meter.
  master_meter_ = std::make_unique<MeterNode>(&master_->output());
  MeterNode* mm = master_meter_.get();
  const core::NodeId mm_id = add("MASTER_METER", NodeKind::kMasterMeter,
                                 master_sec, [mm] { mm->process(); });
  graph_.add_edge(master_id, mm_id);

  // Analyzer.
  analyzer_ = std::make_unique<AnalyzerNode>(&mixer_->output());
  AnalyzerNode* an = analyzer_.get();
  const core::NodeId an_id =
      add("ANALYZER", NodeKind::kAnalyzer, master_sec, [an] { an->process(); });
  graph_.add_edge(mixer_id, an_id);

  // Beatgrid / master tempo accounting.
  beatgrid_ = std::make_unique<UtilityNode>(99);
  UtilityNode* bg = beatgrid_.get();
  const core::NodeId bg_id =
      add("BEATGRID", NodeKind::kBeatgrid, master_sec, [bg] { bg->process(); });
  graph_.add_edge(mixer_id, bg_id);

  DJSTAR_ASSERT_MSG(graph_.node_count() == kPaperNodes,
                    "canonical DJ Star graph must have 67 nodes");
  DJSTAR_ASSERT_MSG(graph_.source_nodes().size() == 33,
                    "canonical DJ Star graph must have 33 source nodes");
  if (with_decks) add_deck_jobs(decks, sp_ids);

  // Degradation tiers: deck effects can run in bypass (audio still
  // flows), GUI/accounting sinks can be skipped outright, everything on
  // the audible signal path is essential.
  tiers_.assign(kinds_.size(), DegradeTier::kEssential);
  node_effect_.assign(kinds_.size(), nullptr);
  std::size_t fx_i = 0;
  for (core::NodeId n = 0; n < graph_.node_count(); ++n) {
    switch (kinds_[n]) {
      case NodeKind::kDeckEffectA:
      case NodeKind::kDeckEffect:
        tiers_[n] = DegradeTier::kFxBypass;
        node_effect_[n] = effects_[fx_i++].get();
        break;
      case NodeKind::kDeckMeter:
      case NodeKind::kMasterMeter:
      case NodeKind::kAnalyzer:
      case NodeKind::kMonitor:
      case NodeKind::kRecord:
      case NodeKind::kBeatgrid:
        tiers_[n] = DegradeTier::kSinkSkip;
        break;
      default:
        break;
    }
  }

  declare_accesses(deck_inputs);
}

void DjStarGraph::add_deck_jobs(
    const std::array<Deck*, 4>& decks,
    const std::array<std::array<core::NodeId, 4>, 4>& sp_ids) {
  job_times_ = std::make_unique<JobTimesSlot[]>(4);
  for (unsigned d = 0; d < 4; ++d) {
    Deck* dk = decks[d];
    DeckJobTimes* t = &job_times_[d].t;
    const core::NodeId job = graph_.add_node(
        "DECK_" + std::string(kDeckNames[d]),
        [dk, t] {
          t->tp_begin = support::now();
          dk->process_timecode();
          t->gp_begin = support::now();
          dk->preprocess();
          t->gp_end = support::now();
        },
        std::string("deck") + kDeckNames[d]);
    kinds_.push_back(NodeKind::kDeckJob);
    deck_jobs_.push_back(job);
    for (core::NodeId sp : sp_ids[d]) graph_.add_edge(job, sp);
  }
}

core::WorkFn DjStarGraph::bypass_work(core::NodeId n) const {
  EffectNode* e = node_effect_[n];
  if (e == nullptr) return {};
  return [e] { e->process_bypass(); };
}

void DjStarGraph::poison_output() noexcept {
  auto& out = audio_out_->output();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto raw = out.raw();
  // A burst is enough to trip any consumer; full-buffer scribble would
  // be unrealistic for a single corrupted node.
  const std::size_t burst = std::min<std::size_t>(32, raw.size());
  for (std::size_t i = 0; i < burst; ++i) raw[i] = nan;
}

void DjStarGraph::declare_accesses(
    const std::array<const audio::AudioBuffer*, 4>& deck_inputs) {
  // Walk the nodes in id (=creation) order and declare each one's buffer
  // reads/writes so AccessRegistry::check can prove the graph race-free.
  std::size_t sp_i = 0, fx_i = 0, ch_i = 0, meter_i = 0, job_i = 0;
  for (core::NodeId n = 0; n < graph_.node_count(); ++n) {
    switch (kinds_[n]) {
      case NodeKind::kSamplePlayer: {
        registry_.declare(n, {{deck_inputs[sp_i / 4]},
                              {&players_[sp_i]->output()}});
        ++sp_i;
        break;
      }
      case NodeKind::kUtility:
      case NodeKind::kBeatgrid:
        break;  // control-only nodes touch no audio buffers
      case NodeKind::kDeckEffectA:
      case NodeKind::kDeckEffect: {
        const std::size_t deck = fx_i / 4;
        const std::size_t slot = fx_i % 4;
        core::AccessDecl d;
        if (slot == 0) {
          for (std::size_t k = 0; k < 4; ++k) {
            d.reads.push_back(&players_[deck * 4 + k]->output());
          }
        } else {
          d.reads.push_back(&effects_[fx_i - 1]->output());
        }
        d.writes.push_back(&effects_[fx_i]->output());
        registry_.declare(n, d);
        ++fx_i;
        break;
      }
      case NodeKind::kChannel: {
        registry_.declare(n, {{&effects_[ch_i * 4 + 3]->output()},
                              {&channels_[ch_i]->output()}});
        ++ch_i;
        break;
      }
      case NodeKind::kDeckMeter: {
        registry_.declare_read(n, &channels_[meter_i]->output());
        ++meter_i;
        break;
      }
      case NodeKind::kSampler:
        registry_.declare_write(n, &sampler_->output());
        break;
      case NodeKind::kMixer: {
        core::AccessDecl d;
        for (auto& ch : channels_) d.reads.push_back(&ch->output());
        d.reads.push_back(&sampler_->output());
        d.writes.push_back(&mixer_->output());
        registry_.declare(n, d);
        break;
      }
      case NodeKind::kMasterBus:
        registry_.declare(n, {{&mixer_->output()}, {&master_->output()}});
        break;
      case NodeKind::kCue: {
        core::AccessDecl d;
        for (auto& ch : channels_) d.reads.push_back(&ch->output());
        d.writes.push_back(&cue_->output());
        registry_.declare(n, d);
        break;
      }
      case NodeKind::kMonitor:
        registry_.declare(n, {{&cue_->output()}, {&monitor_->output()}});
        break;
      case NodeKind::kRecord:
        registry_.declare(n, {{&master_->output()}, {&record_->output()}});
        break;
      case NodeKind::kAudioOut:
        registry_.declare(n, {{&master_->output()}, {&audio_out_->output()}});
        break;
      case NodeKind::kHeadphone:
        registry_.declare(n, {{&cue_->output(), &master_->output()},
                              {&headphone_->output()}});
        break;
      case NodeKind::kMasterMeter:
        registry_.declare_read(n, &master_->output());
        break;
      case NodeKind::kAnalyzer:
        registry_.declare_read(n, &mixer_->output());
        break;
      case NodeKind::kDeckJob:
        registry_.declare_write(n, deck_inputs[job_i++]);
        break;
    }
  }
}

std::vector<double> DjStarGraph::reference_durations() const {
  std::vector<double> d;
  d.reserve(kinds_.size());
  for (NodeKind k : kinds_) d.push_back(reference_duration_us(k));
  return d;
}

ReferenceGraph make_reference_graph() {
  ReferenceGraph r{DjStarGraph{}, {}};
  r.durations_us = r.graph.reference_durations();
  return r;
}

}  // namespace djstar::engine
