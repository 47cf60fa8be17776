// A seeded syscall stream drawn from the Table-5 operation mix (the rows of
// bench/bench_table5_lmbench.cc): null, stat, open, file create, file
// delete, pipe, unix and mmap analogues, each a short fixed sequence of
// syscalls with seeded arguments where the syscall takes a free value.
#ifndef OZZBENCH_SYSCALL_MIX_H_
#define OZZBENCH_SYSCALL_MIX_H_

#include <vector>

#include "ozzbench/harness.h"
#include "src/osk/kernel.h"

namespace ozzbench {

struct MixCall {
  std::size_t name;  // index into the mix's syscall-name table
  std::vector<i64> args;
};

// A prologue (fs$open, unix$bind) followed by `rows` randomly chosen rows.
std::vector<MixCall> MakeMixStream(u64 seed, std::size_t rows);

// Latency is timed over blocks of this many consecutive syscalls. Single
// syscalls of the mix differ by type, so their median sits between two
// types and flips with small speed changes; a block's mean per syscall has
// one mode. Blocks also keep clock reads and the sample buffer small.
inline constexpr std::size_t kMixBlock = 64;

// Runs `stream` on `kernel` and returns every return value. When `tracer`
// is set, each syscall gets an "osk.syscall" span. When `op_ms` is set, the
// mean latency per syscall of each block of kMixBlock is appended (ms).
std::vector<long> RunMix(const std::vector<MixCall>& stream, ozz::osk::Kernel& kernel,
                         Tracer* tracer = nullptr, std::vector<double>* op_ms = nullptr);

}  // namespace ozzbench

#endif  // OZZBENCH_SYSCALL_MIX_H_
