#ifndef PISO_SIM_IDS_HH
#define PISO_SIM_IDS_HH

/**
 * @file
 * Shared identifier types used across the machine, OS, and SPU layers.
 *
 * Kept in one header so low layers (e.g. the disk device, which tags
 * requests with the owning SPU for bandwidth accounting) do not need to
 * include the full SPU machinery.
 */

#include <cstdint>

namespace piso {

/** Identifies a Software Performance Unit (the paper's SPU). */
using SpuId = std::int32_t;

/** SpuId of the default "kernel" SPU (Section 2.2): kernel processes
 *  and kernel memory; unrestricted access to all resources. */
inline constexpr SpuId kKernelSpu = 0;

/** SpuId of the default "shared" SPU (Section 2.2): pages referenced by
 *  multiple SPUs and batched delayed disk writes; lowest disk priority. */
inline constexpr SpuId kSharedSpu = 1;

/** First SpuId handed out to user SPUs. */
inline constexpr SpuId kFirstUserSpu = 2;

/** Sentinel for "no SPU". */
inline constexpr SpuId kNoSpu = -1;

/** Process identifier. */
using Pid = std::int32_t;
inline constexpr Pid kNoPid = -1;

/** CPU index within the machine. */
using CpuId = std::int32_t;
inline constexpr CpuId kNoCpu = -1;

/** Disk index within the machine. */
using DiskId = std::int32_t;

/** File identifier within the simulated file system. */
using FileId = std::int32_t;
inline constexpr FileId kNoFile = -1;

/** Workload job identifier. */
using JobId = std::int32_t;
inline constexpr JobId kNoJob = -1;

/**
 * Names the kernel I/O operation a device request or network message
 * belongs to: the operation's slot in the kernel's slab, the slot's
 * generation when the request was issued (a slot is reused once its
 * operation settles) and the attempt number. Devices carry it through
 * untouched and hand it back with the completion.
 */
struct IoTag
{
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
    std::int32_t attempt = 0;
};

} // namespace piso

#endif // PISO_SIM_IDS_HH
