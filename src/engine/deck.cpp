#include "djstar/engine/deck.hpp"

#include <algorithm>
#include <cmath>

namespace djstar::engine {

Deck::Deck(unsigned index, const audio::TrackSpec& spec)
    : index_(index), track_(audio::Track::generate(spec)) {
  // Stagger deck positions so the four decks don't play in unison.
  track_.seek(index * 4096);
  for (auto& w : wsola_) {
    // A wider similarity search than the default (289 candidates of 192
    // taps) is GP's main cost: about a quarter of the sequential APC on
    // the 4-vCPU host (bench/sec3_hotspots), against 33 % in the paper.
    w = stretch::Wsola{{.frame_size = 512, .overlap = 192, .tolerance = 144}};
  }
}

void Deck::set_pitch(double pitch) noexcept {
  pitch_ = std::clamp(pitch, -2.0, 2.0);
  tc_gen_.set_pitch(pitch_);
}

void Deck::process_timecode() noexcept {
  tc_gen_.render(tc_buf_);
  tc_decoder_.process(tc_buf_);
}

void Deck::preprocess() {
  // Use the decoded pitch once the decoder locks; fall back to the
  // commanded pitch during the first blocks.
  const double decoded = tc_decoder_.state().locked
                             ? tc_decoder_.state().pitch
                             : pitch_;

  if (!keylock_ || stretch_degraded_) {
    // Varispeed honours the signed platter speed: negative = reverse
    // (scratching / backspins).
    double rate = std::clamp(decoded, -2.0, 2.0);
    if (std::abs(rate) < 0.05) rate = 0.0;  // stopped platter = silence
    track_.read_varispeed(input_, rate);
    return;
  }

  // Keylock can only stretch forward audio; reverse falls back to the
  // magnitude (like most real DJ software, which disables keylock while
  // scratching).
  const double rate = std::clamp(std::abs(decoded), 0.25, 2.0);

  // Keylock: feed track audio at native speed, stretch by `rate`.
  for (auto& w : wsola_) w.set_rate(rate);
  while (wsola_[0].available() < audio::kBlockSize ||
         wsola_[1].available() < audio::kBlockSize) {
    track_.read_looped(raw_);
    wsola_[0].push(raw_.channel(0));
    wsola_[1].push(raw_.channel(1));
  }
  for (std::size_t c = 0; c < 2; ++c) {
    wsola_[c].pull(input_.channel(c));
  }
}

}  // namespace djstar::engine
