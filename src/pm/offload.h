// Active-NPMU command set (near-data offload).
//
// The paper's NPMU is deliberately passive — "without any involvement by
// a CPU in the NPMU" (§3.3) — so every recovery scan, log compaction and
// replay ships whole log images across the fabric. NearPM-style devices
// add a small command engine next to the media; this header defines the
// three commands the stack offloads when NpmuConfig::active_commands is
// on, the wire formats, and the executor shared by the hardware Npmu and
// the Pmp software prototype:
//
//   VerifyScan  — walk log frames on-device, return only the durable
//                 tail / frame count / last LSN (bytes saved: the log).
//   CompactTo   — reclaim a log prefix with one durable device-side
//                 move + control rewrite (bytes saved: the suffix that
//                 the host would otherwise read and rewrite).
//   ShipReplay  — stream back only the committed update records for one
//                 DP2 partition (bytes saved: everything filtered out,
//                 and the second scan pass the host would run).
//
// All integers little-endian (common/serialize.h). NVAs are the device's
// own network-virtual addresses, resolved against the standard layout in
// npmu.h (data area behind kDataBase); commands addressing outside the
// data area fail with kInvalidArgument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/fabric.h"

namespace ods::pm {

// Command opcodes carried by net::Endpoint::StartCommand.
inline constexpr std::uint32_t kCmdVerifyScan = 1;
inline constexpr std::uint32_t kCmdCompactTo = 2;
inline constexpr std::uint32_t kCmdShipReplay = 3;

// VerifyScan frame formats: CRC-framed audit logs (PmLogDevice) and
// header-framed stripes (ShardedPmLogDevice).
inline constexpr std::uint8_t kScanCrcFrames = 0;
inline constexpr std::uint8_t kScanStripeFrames = 1;

// Request: [kind u8][base_nva u64][limit u64].
[[nodiscard]] std::vector<std::byte> BuildVerifyScanRequest(
    std::uint8_t kind, std::uint64_t base_nva, std::uint64_t limit);

// kScanCrcFrames response. Offsets are relative to base_nva.
struct VerifyScanResult {
  std::uint64_t durable_tail = 0;  // end of the last fully valid frame
  std::uint64_t frame_count = 0;
  // Offset of the definitive end-of-log (len==0 sentinel or CRC
  // mismatch), or UINT64_MAX when the scan consumed the whole window
  // without one (final frame may straddle past `limit`).
  std::uint64_t first_bad_off = ~0ull;
  std::uint64_t last_lsn = 0;  // LSN of the final valid frame (0 if none)
};
[[nodiscard]] bool ParseVerifyScanResponse(std::span<const std::byte> bytes,
                                           VerifyScanResult& out);

// kScanStripeFrames response: [count u64] then count x {goff u64,
// len u32} — the stripe's frame table. Payload positions follow from
// cumulative (12 + len) so the host rebuilds its merge view without
// reading a byte of payload.
struct StripeFrame {
  std::uint64_t goff = 0;
  std::uint32_t len = 0;
};
[[nodiscard]] bool ParseStripeScanResponse(std::span<const std::byte> bytes,
                                           std::vector<StripeFrame>& out);
// The stripe-frame walk, shared by the device command and the host's
// image-based recovery: the frames from the start of `image` up to a
// zero length word or a frame running past its end.
[[nodiscard]] std::vector<StripeFrame> WalkStripeFrames(
    std::span<const std::byte> image);

// CompactTo request: [src_nva u64][dst_nva u64][len u64][control_nva u64]
// [control blob u32-prefixed]. The device moves [src, src+len) to dst
// (overlap-safe) and writes the new control block, all durable at the
// command ack — the single-command equivalent of the host's
// read-suffix / rewrite / rewrite-control sequence. Empty response.
[[nodiscard]] std::vector<std::byte> BuildCompactRequest(
    std::uint64_t src_nva, std::uint64_t dst_nva, std::uint64_t len,
    std::uint64_t control_nva, std::span<const std::byte> control);

// ShipReplay request: [base_nva u64][limit u64][file_id u32]
// [partition u32][partitions u32]. The device scans the framed log twice
// (commit set, then updates), and the response is a verbatim framed
// stream of exactly the committed kUpdate records whose file matches and
// whose key hashes (common/keyhash.h) to `partition` — ready for the
// host's LogScanner, no further filtering needed.
[[nodiscard]] std::vector<std::byte> BuildShipReplayRequest(
    std::uint64_t base_nva, std::uint64_t limit, std::uint32_t file_id,
    std::uint32_t partition, std::uint32_t partitions);

// The device-side engine, installed as an Endpoint command hook by Npmu
// (constructor) and Pmp (Main). `data` is the data area (kDataBase maps
// to data[0], `capacity` bytes); `media` mirrors mutations when the
// volatile-staging model is on (device-internal writes go straight to
// media — they never cross the NIC staging buffer). Timing: `setup` per
// command plus scanned/moved bytes at `scan_bw` bytes/sec.
[[nodiscard]] net::Endpoint::CommandResult ExecuteDeviceCommand(
    sim::Simulation& sim, std::byte* data, std::byte* media,
    std::uint64_t capacity, std::uint64_t scan_bw, sim::SimDuration setup,
    std::uint32_t opcode, std::span<const std::byte> request);

}  // namespace ods::pm
