// Binary weight checkpoints.
//
// Format (little-endian):
//   magic "DSCP" | u32 version | u64 layer_count | u64 size per layer |
//   float32 parameter data, layer by layer.
//
// The per-layer geometry is stored and verified on load, so a checkpoint
// written by a packed-arena network loads into a per-layer-arena replica of
// the same architecture (and vice versa), but never into a different model.
#pragma once

#include <string>

#include "nn/network.hpp"

namespace ds {

/// Write all parameters of `net` to `path`: the bytes go to `path + ".tmp"`,
/// which is renamed over `path` once fully written, so a process crash never
/// leaves a torn checkpoint. There is no fsync, so a power loss can. Throws
/// ds::Error on I/O failure, with the previous `path` untouched.
void save_checkpoint(const Network& net, const std::string& path);

/// Load parameters into `net`. Throws ds::Error if the file is missing,
/// malformed, has bytes after the last layer, or describes a different
/// parameter geometry.
void load_checkpoint(Network& net, const std::string& path);

}  // namespace ds
