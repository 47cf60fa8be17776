#include "ozzbench/syscall_mix.h"

#include <climits>
#include <cstdio>
#include <cstdlib>

#include "src/base/rng.h"
#include "src/osk/oops.h"

namespace ozzbench {

using namespace ozz;

namespace {

enum Name : std::size_t {
  kNop,
  kFsOpen,
  kFsRead,
  kXskSocket,
  kMqSubmit,
  kMqComplete,
  kMqReap,
  kWqPost,
  kWqRead,
  kUnixBind,
  kUnixGetname,
  kRingbufWrite,
  kRingbufRead,
  kNumNames,
};

constexpr const char* kNames[kNumNames] = {
    "syn$nop",      "fs$open",    "fs$read",       "xsk$socket",    "mq$submit",
    "mq$complete",  "mq$reap",    "wq$post",       "wq$read",       "unix$bind",
    "unix$getname", "ringbuf$write", "ringbuf$read",
};

constexpr int kRows = 8;

void AppendRow(int row, base::Rng& rng, std::vector<MixCall>* out) {
  switch (row) {
    case 0:  // null: no-op syscall
      out->push_back({kNop, {}});
      break;
    case 1:  // stat: metadata read
      out->push_back({kFsRead, {0}});
      break;
    case 2:  // open/close: socket creation
      out->push_back({kXskSocket, {}});
      break;
    case 3:  // File create: allocation-heavy submit/complete/reap
    case 4:  // File delete: the same plus a reap of the empty queue
      out->push_back({kMqSubmit, {}});
      out->push_back({kMqComplete, {}});
      out->push_back({kMqReap, {}});
      if (row == 4) {
        out->push_back({kMqReap, {}});
      }
      break;
    case 5:  // pipe: ring-buffer post + read
      out->push_back({kWqPost, {static_cast<i64>(rng.InRange(1, 64))}});
      out->push_back({kWqRead, {}});
      break;
    case 6:  // unix: socket name read
      out->push_back({kUnixGetname, {}});
      break;
    default:  // mmap: seqcount-protected record updates (write-heavy)
      for (int i = 0; i < 8; ++i) {
        out->push_back({kRingbufWrite, {static_cast<i64>(rng.InRange(1, 1 << 20))}});
      }
      out->push_back({kRingbufRead, {}});
      break;
  }
}

}  // namespace

std::vector<MixCall> MakeMixStream(u64 seed, std::size_t rows) {
  base::Rng rng(seed);
  std::vector<MixCall> stream;
  stream.push_back({kFsOpen, {}});
  stream.push_back({kUnixBind, {16}});
  for (std::size_t i = 0; i < rows; ++i) {
    AppendRow(static_cast<int>(rng.Below(kRows)), rng, &stream);
  }
  // Without this the capacity doubles past whichever power of two the seed's
  // call count lands near, and peak RSS would jump by megabytes between seeds.
  stream.shrink_to_fit();
  return stream;
}

std::vector<long> RunMix(const std::vector<MixCall>& stream, osk::Kernel& kernel, Tracer* tracer,
                         std::vector<double>* op_ms) {
  const osk::SyscallDesc* descs[kNumNames];
  for (std::size_t i = 0; i < kNumNames; ++i) {
    descs[i] = kernel.table().Find(kNames[i]);
    if (descs[i] == nullptr) {
      std::fprintf(stderr, "syscall %s is not installed\n", kNames[i]);
      std::exit(1);
    }
  }
  std::vector<long> rets;
  rets.reserve(stream.size());
  Clock::time_point block_start = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const MixCall& call = stream[i];
    long ret = LONG_MIN;  // an oops: never a legitimate return value
    try {
      if (tracer != nullptr) {
        Tracer::Scope span(tracer, "osk.syscall");
        ret = kernel.Invoke(*descs[call.name], call.args);
      } else {
        ret = kernel.Invoke(*descs[call.name], call.args);
      }
    } catch (const osk::OopsException&) {
    }
    if (op_ms != nullptr && (i + 1) % kMixBlock == 0) {
      const Clock::time_point now = Clock::now();
      op_ms->push_back(std::chrono::duration<double, std::milli>(now - block_start).count() /
                       kMixBlock);
      block_start = now;
    }
    rets.push_back(ret);
  }
  return rets;
}

}  // namespace ozzbench
