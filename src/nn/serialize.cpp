#include "nn/serialize.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "support/error.hpp"

namespace ds {
namespace {

constexpr char kMagic[4] = {'D', 'S', 'C', 'P'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in, const char* what) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  DS_CHECK(in.good(), "checkpoint truncated while reading " << what);
  return value;
}

}  // namespace

void save_checkpoint(const Network& net, const std::string& path) {
  DS_CHECK(net.finalized(), "cannot checkpoint an unfinalised network");
  // Write a sibling temp file and rename it over `path`, so a crash
  // mid-write leaves the previous checkpoint intact.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  DS_CHECK(out.is_open(), "cannot open checkpoint for writing: " << tmp);
  try {
    out.write(kMagic, sizeof(kMagic));
    write_pod(out, kVersion);
    const ParamArena& arena = net.arena();
    write_pod(out, static_cast<std::uint64_t>(arena.layer_count()));
    for (std::size_t l = 0; l < arena.layer_count(); ++l) {
      write_pod(out, static_cast<std::uint64_t>(arena.layer_sizes()[l]));
    }
    for (std::size_t l = 0; l < arena.layer_count(); ++l) {
      const auto params = arena.layer_params(l);
      out.write(reinterpret_cast<const char*>(params.data()),
                static_cast<std::streamsize>(params.size() * sizeof(float)));
    }
    out.flush();
    out.close();
    DS_CHECK(!out.fail(), "write failure on checkpoint: " << tmp);
    DS_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "cannot rename " << tmp << " over " << path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

void load_checkpoint(Network& net, const std::string& path) {
  DS_CHECK(net.finalized(), "cannot load into an unfinalised network");
  std::ifstream in(path, std::ios::binary);
  DS_CHECK(in.is_open(), "cannot open checkpoint: " << path);

  char magic[4];
  in.read(magic, sizeof(magic));
  DS_CHECK(in.good() && std::memcmp(magic, kMagic, 4) == 0,
           "not a deepscale checkpoint: " << path);
  const auto version = read_pod<std::uint32_t>(in, "version");
  DS_CHECK(version == kVersion, "unsupported checkpoint version " << version);

  ParamArena& arena = net.arena();
  const auto layer_count = read_pod<std::uint64_t>(in, "layer count");
  DS_CHECK(layer_count == arena.layer_count(),
           "checkpoint has " << layer_count << " layers, network has "
                             << arena.layer_count());
  for (std::size_t l = 0; l < arena.layer_count(); ++l) {
    const auto size = read_pod<std::uint64_t>(in, "layer size");
    DS_CHECK(size == arena.layer_sizes()[l],
             "layer " << l << " size mismatch: checkpoint " << size
                      << " vs network " << arena.layer_sizes()[l]);
  }
  for (std::size_t l = 0; l < arena.layer_count(); ++l) {
    auto params = arena.layer_params(l);
    in.read(reinterpret_cast<char*>(params.data()),
            static_cast<std::streamsize>(params.size() * sizeof(float)));
    DS_CHECK(in.good() || (in.eof() && l + 1 == arena.layer_count() &&
                           static_cast<std::size_t>(in.gcount()) ==
                               params.size() * sizeof(float)),
             "checkpoint truncated in layer " << l);
  }
  DS_CHECK(in.peek() == std::ifstream::traits_type::eof(),
           "trailing bytes after the last layer of checkpoint: " << path);
}

}  // namespace ds
