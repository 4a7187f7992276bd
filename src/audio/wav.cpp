#include "djstar/audio/wav.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <vector>

namespace djstar::audio {
namespace {

void put_u32(std::vector<std::uint8_t>& v, std::uint32_t x) {
  v.push_back(static_cast<std::uint8_t>(x & 0xff));
  v.push_back(static_cast<std::uint8_t>((x >> 8) & 0xff));
  v.push_back(static_cast<std::uint8_t>((x >> 16) & 0xff));
  v.push_back(static_cast<std::uint8_t>((x >> 24) & 0xff));
}

void put_u16(std::vector<std::uint8_t>& v, std::uint16_t x) {
  v.push_back(static_cast<std::uint8_t>(x & 0xff));
  v.push_back(static_cast<std::uint8_t>((x >> 8) & 0xff));
}

void put_tag(std::vector<std::uint8_t>& v, const char* tag) {
  for (int i = 0; i < 4; ++i) v.push_back(static_cast<std::uint8_t>(tag[i]));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

bool write_wav(const std::string& path, const AudioBuffer& buf,
               double sample_rate, WavFormat format) {
  const auto channels = static_cast<std::uint16_t>(buf.channels());
  const auto frames = static_cast<std::uint32_t>(buf.frames());
  if (channels == 0 || frames == 0) return false;
  const std::uint16_t bytes_per_sample = format == WavFormat::kPcm16 ? 2 : 4;
  const std::uint32_t data_bytes = frames * channels * bytes_per_sample;

  std::vector<std::uint8_t> out;
  out.reserve(44 + data_bytes);
  put_tag(out, "RIFF");
  put_u32(out, 36 + data_bytes);
  put_tag(out, "WAVE");
  put_tag(out, "fmt ");
  put_u32(out, 16);
  put_u16(out, static_cast<std::uint16_t>(format));
  put_u16(out, channels);
  const auto sr = static_cast<std::uint32_t>(sample_rate);
  put_u32(out, sr);
  put_u32(out, sr * channels * bytes_per_sample);
  put_u16(out, static_cast<std::uint16_t>(channels * bytes_per_sample));
  put_u16(out, static_cast<std::uint16_t>(bytes_per_sample * 8));
  put_tag(out, "data");
  put_u32(out, data_bytes);

  // Interleave.
  for (std::uint32_t i = 0; i < frames; ++i) {
    for (std::uint16_t c = 0; c < channels; ++c) {
      const float s = buf.at(c, i);
      if (format == WavFormat::kPcm16) {
        const float clamped = std::clamp(s, -1.0f, 1.0f);
        const auto q = static_cast<std::int16_t>(
            std::lround(clamped * 32767.0f));
        put_u16(out, static_cast<std::uint16_t>(q));
      } else {
        std::uint32_t bits;
        static_assert(sizeof bits == sizeof s);
        std::memcpy(&bits, &s, sizeof bits);
        put_u32(out, bits);
      }
    }
  }

  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(reinterpret_cast<const char*>(out.data()),
          static_cast<std::streamsize>(out.size()));
  return static_cast<bool>(f);
}

bool read_wav(const std::string& path, WavData& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::vector<std::uint8_t> raw((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
  if (raw.size() < 12 || std::memcmp(raw.data(), "RIFF", 4) != 0 ||
      std::memcmp(raw.data() + 8, "WAVE", 4) != 0) {
    return false;
  }

  std::uint16_t format = 0, channels = 0, bits = 0;
  std::uint32_t sample_rate = 0;
  const std::uint8_t* data = nullptr;
  std::uint32_t data_bytes = 0;

  std::size_t pos = 12;
  while (pos + 8 <= raw.size()) {
    const std::uint8_t* hdr = raw.data() + pos;
    const std::uint32_t chunk_size = get_u32(hdr + 4);
    const std::uint8_t* body = hdr + 8;
    if (pos + 8 + chunk_size > raw.size()) return false;
    if (std::memcmp(hdr, "fmt ", 4) == 0 && chunk_size >= 16) {
      format = get_u16(body);
      channels = get_u16(body + 2);
      sample_rate = get_u32(body + 4);
      bits = get_u16(body + 14);
    } else if (std::memcmp(hdr, "data", 4) == 0) {
      data = body;
      data_bytes = chunk_size;
    }
    pos += 8 + chunk_size + (chunk_size & 1);  // chunks are word-aligned
  }

  if (!data || channels == 0 || sample_rate == 0) return false;
  const bool pcm16 = (format == 1 && bits == 16);
  const bool f32 = (format == 3 && bits == 32);
  if (!pcm16 && !f32) return false;

  const std::uint32_t bytes_per_sample = pcm16 ? 2 : 4;
  const std::uint32_t frames = data_bytes / (channels * bytes_per_sample);
  out.buffer.resize(channels, frames);
  out.sample_rate = sample_rate;

  for (std::uint32_t i = 0; i < frames; ++i) {
    for (std::uint16_t c = 0; c < channels; ++c) {
      const std::uint8_t* p =
          data + (static_cast<std::size_t>(i) * channels + c) * bytes_per_sample;
      if (pcm16) {
        const auto q = static_cast<std::int16_t>(get_u16(p));
        out.buffer.at(c, i) = static_cast<float>(q) / 32768.0f;
      } else {
        std::uint32_t word = get_u32(p);
        float s;
        std::memcpy(&s, &word, sizeof s);
        out.buffer.at(c, i) = s;
      }
    }
  }
  return true;
}

}  // namespace djstar::audio
