// Message kinds for the transaction-processing stack (0x300-0x3FF).
#pragma once

#include <cstdint>

namespace ods::tp {

// TMF (transaction monitor)
inline constexpr std::uint32_t kTmfBegin = 0x300;
inline constexpr std::uint32_t kTmfCommit = 0x301;
inline constexpr std::uint32_t kTmfAbort = 0x302;
// Which of the listed transactions the TMF holds as aborted. A DP2 in
// cold recovery asks before it redoes the commits in its own trail.
inline constexpr std::uint32_t kTmfAbortedOf = 0x303;
// The TMF pair's service name: the rig registers it, clients and DP2s
// call it.
inline constexpr char kTmfService[] = "$TMF";

// DP2 (database writer / disk process)
inline constexpr std::uint32_t kDp2Insert = 0x310;
inline constexpr std::uint32_t kDp2Read = 0x311;
inline constexpr std::uint32_t kDp2Update = 0x312;
inline constexpr std::uint32_t kDp2Resolve = 0x313;  // commit/abort fanout
inline constexpr std::uint32_t kDp2Scan = 0x315;  // shared-lock range scan

// ADP (audit data process / log writer)
inline constexpr std::uint32_t kAdpBuffer = 0x320;   // buffer audit records
inline constexpr std::uint32_t kAdpFlush = 0x321;    // make audit durable
inline constexpr std::uint32_t kAdpReadLog = 0x322;  // recovery support
// Hand a recovering DP2 the coordinates of the durable log region so it
// can pull filtered replay straight from the NPMU (device ShipReplay)
// instead of shipping the whole image through the ADP.
inline constexpr std::uint32_t kAdpReplaySource = 0x323;

}  // namespace ods::tp
