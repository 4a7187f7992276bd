// djstar/timecode/timecode.hpp
// Synthetic vinyl-timecode substrate (DESIGN.md §2).
//
// DJ Star interprets control signals from timecode vinyl/CDs: a stereo
// carrier whose frequency tracks platter speed, whose stereo phase
// relation encodes direction, and whose amplitude modulation encodes the
// absolute position. Decoding this consumed 16 % of the paper's APC
// runtime. We implement a compatible scheme:
//
//  * carrier: sine at kCarrierHz * pitch on the left channel, quadrature
//    (90 degrees ahead when playing forward) on the right channel;
//  * position: one bit per carrier cycle, amplitude 1.0 = '1' and
//    kZeroAmp = '0', framed as [kSyncBits sync pattern | 20-bit position
//    | 4-bit XOR checksum] repeating.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "djstar/audio/buffer.hpp"

namespace djstar::timecode {

inline constexpr double kCarrierHz = 2000.0;
inline constexpr float kZeroAmp = 0.55f;
inline constexpr unsigned kPositionBits = 20;
inline constexpr unsigned kChecksumBits = 4;
inline constexpr std::uint32_t kSyncPattern = 0b11110010;
inline constexpr unsigned kSyncBits = 8;
inline constexpr unsigned kFrameBits =
    kSyncBits + kPositionBits + kChecksumBits;

/// 4-bit XOR checksum over the 20 position bits (nibble-folded).
std::uint32_t position_checksum(std::uint32_t position) noexcept;

/// Generates the stereo timecode signal for a virtual turntable.
class TimecodeGenerator {
 public:
  explicit TimecodeGenerator(double sample_rate = audio::kSampleRate) noexcept;

  /// Platter speed: 1.0 = normal forward, negative = reverse.
  void set_pitch(double pitch) noexcept { pitch_ = pitch; }
  double pitch() const noexcept { return pitch_; }

  /// Position counter (frames, advances with frame numbering).
  std::uint32_t frame_counter() const noexcept { return frame_counter_; }
  void seek(std::uint32_t frame) noexcept;

  /// Render the next block of timecode into a stereo buffer.
  void render(audio::AudioBuffer& out) noexcept;

 private:
  std::uint64_t current_frame_word() const noexcept;
  double sr_;
  double pitch_ = 1.0;
  double phase_ = 0.0;        // carrier phase [0,1)
  unsigned bit_index_ = 0;    // bit position within the frame word
  std::uint32_t frame_counter_ = 0;
};

/// What the decoder knows about the platter.
struct TransportState {
  double pitch = 0.0;          ///< estimated speed (signed; <0 = reverse)
  bool locked = false;         ///< true once a full frame has validated
  std::uint32_t position = 0;  ///< last validated absolute frame counter
  std::uint64_t frames_decoded = 0;
  std::uint64_t checksum_errors = 0;
};

/// Streaming decoder. Pitch/direction come from per-sample quadrature
/// demodulation (theta = atan2(L, R); the wrapped phase increment is the
/// instantaneous carrier frequency, signed by platter direction — the
/// same approach real timecode decoders use). Bits are sliced per
/// carrier cycle from the amplitude envelope; frames are validated by a
/// sync+checksum state machine requiring two chained frames to lock.
class TimecodeDecoder {
 public:
  explicit TimecodeDecoder(double sample_rate = audio::kSampleRate) noexcept;

  /// Consume one stereo block. Allocation-free.
  void process(const audio::AudioBuffer& in) noexcept;

  const TransportState& state() const noexcept { return state_; }
  void reset() noexcept;

 private:
  void on_cycle_complete(double period_samples, float peak_amp,
                         bool forward) noexcept;
  void push_bit(bool bit) noexcept;

  double sr_;
  double prev_theta_ = 0.0;
  bool have_theta_ = false;
  TransportState state_{};
  float prev_l_ = 0.0f;
  double samples_since_crossing_ = 0.0;
  float cycle_peak_ = 0.0f;
  double pitch_smooth_ = 0.0;
  std::uint64_t bit_shift_ = 0;  // most recent bits, LSB = newest
  unsigned bits_seen_ = 0;
  // Frame-sync state machine: scanning until two chained valid frames
  // (positions p, p+1 exactly one frame apart) are seen, then locked to
  // 32-bit boundaries. Random noise essentially never chains, so there
  // are no false locks; in the locked state a failed boundary check is a
  // real checksum error and drops back to scanning.
  bool synced_ = false;
  bool have_candidate_ = false;
  std::uint32_t candidate_position_ = 0;
  unsigned bits_since_candidate_ = 0;
  unsigned boundary_countdown_ = 0;
};

}  // namespace djstar::timecode
