// djstar/engine/deck.hpp
// One playback deck: track + timecode control + preprocessing.
//
// The deck implements the two APC phases that the paper ran before and
// outside its task graph (paper §VI: T(APC) = T(TP) + T(GP) + T(Graph) +
// T(VC)):
//  * TP — render the virtual turntable's timecode signal and decode it
//    back into pitch/position (what the real app does with the sound
//    card's input channels);
//  * GP — pull track audio at the decoded pitch and time-stretch it
//    (keylock) into the buffer the deck's sample players consume.
// The engine runs each deck's TP then GP as one node of its graph, the
// deck's job (engine/djstar_graph.hpp), so the four decks run in
// parallel on the team. A deck touches only its own state.
#pragma once

#include <array>
#include <cstdint>

#include "djstar/audio/buffer.hpp"
#include "djstar/audio/track.hpp"
#include "djstar/stretch/wsola.hpp"
#include "djstar/timecode/timecode.hpp"

namespace djstar::engine {

class Deck {
 public:
  /// `index` 0..3 (deck A..D). The track spec seeds deterministic
  /// program material (DESIGN.md: synthetic-track substitution).
  Deck(unsigned index, const audio::TrackSpec& spec);

  unsigned index() const noexcept { return index_; }

  /// Platter pitch set by the (virtual) DJ. 1.0 = normal speed.
  void set_pitch(double pitch) noexcept;
  double pitch() const noexcept { return pitch_; }

  /// Keylock: true = time-stretch (tempo change without pitch change),
  /// false = plain varispeed.
  void set_keylock(bool on) noexcept { keylock_ = on; }
  bool keylock() const noexcept { return keylock_; }

  /// Supervisor override (degradation rung kNoStretch): while set,
  /// preprocess() uses cheap varispeed even when keylock is on. Kept
  /// separate from set_keylock() so recovery restores the DJ's actual
  /// preference instead of whatever the ladder left behind.
  void set_stretch_degraded(bool on) noexcept { stretch_degraded_ = on; }
  bool stretch_degraded() const noexcept { return stretch_degraded_; }

  /// TP phase: render one block of timecode at the current platter
  /// pitch and run the decoder over it.
  void process_timecode() noexcept;

  /// GP phase: fill input() with the next block of (stretched) audio at
  /// the *decoded* pitch. Call after process_timecode().
  void preprocess();

  /// The buffer the deck's four sample players read. Stable address.
  const audio::AudioBuffer& input() const noexcept { return input_; }

  /// Pitch as recovered by the timecode decoder.
  double decoded_pitch() const noexcept {
    return tc_decoder_.state().pitch;
  }
  const timecode::TransportState& transport() const noexcept {
    return tc_decoder_.state();
  }

  audio::Track& track() noexcept { return track_; }

 private:
  unsigned index_;
  audio::Track track_;
  timecode::TimecodeGenerator tc_gen_;
  timecode::TimecodeDecoder tc_decoder_;
  std::array<stretch::Wsola, 2> wsola_;  // per stereo channel
  double pitch_ = 1.0;
  bool keylock_ = true;
  bool stretch_degraded_ = false;

  audio::AudioBuffer tc_buf_{2, audio::kBlockSize};
  audio::AudioBuffer raw_{2, audio::kBlockSize};
  audio::AudioBuffer input_{2, audio::kBlockSize};
};

}  // namespace djstar::engine
