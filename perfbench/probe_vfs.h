// A timing decorator over fs::Vfs. Every workload's timed part issues its
// file-system calls through one ProbeVfs (the Montage runner included, which
// is why this sits at the Vfs boundary rather than in the workload code).
// It records, in simulated time:
//   * whole-file read latency: Open call -> Close completion (read handle);
//   * whole-file write latency: Create call -> Close completion;
//   * single metadata call latency (create, open, stat, readdir, rename,
//     unlink, mkdir, rmdir, link);
// and counts calls and failed calls. Read/Write/Flush are forwarded as-is;
// their results are checked by the caller (content verification) or
// surface at Close.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "harness.h"
#include "memfs/vfs.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace perfbench {

class ProbeVfs final : public memfs::fs::Vfs {
 public:
  ProbeVfs(memfs::sim::Simulation& sim, memfs::fs::Vfs& inner, SimOutcome& out)
      : sim_(sim), inner_(inner), out_(out) {}

  using Ctx = memfs::fs::VfsContext;
  using Handle = memfs::fs::FileHandle;
  template <typename T>
  using Future = memfs::sim::Future<T>;
  using Status = memfs::Status;

  Future<memfs::Result<Handle>> Create(Ctx ctx, std::string path) override;
  Future<memfs::Result<Handle>> Open(Ctx ctx, std::string path) override;
  Future<Status> Write(Ctx ctx, Handle handle, memfs::Bytes data) override;
  Future<memfs::Result<memfs::Bytes>> Read(Ctx ctx, Handle handle,
                                           std::uint64_t offset,
                                           std::uint64_t length) override;
  Future<Status> Flush(Ctx ctx, Handle handle) override;
  Future<Status> Close(Ctx ctx, Handle handle) override;
  Future<Status> Mkdir(Ctx ctx, std::string path) override;
  Future<memfs::Result<std::vector<memfs::fs::FileInfo>>> ReadDir(
      Ctx ctx, std::string path) override;
  Future<memfs::Result<memfs::fs::DirPage>> ReadDirPage(
      Ctx ctx, std::string path, memfs::fs::DirCursor cursor,
      std::uint32_t limit) override;
  Future<memfs::Result<memfs::fs::FileInfo>> Stat(Ctx ctx,
                                                  std::string path) override;
  Future<Status> Unlink(Ctx ctx, std::string path) override;
  Future<Status> Rmdir(Ctx ctx, std::string path) override;
  Future<Status> Rename(Ctx ctx, std::string from, std::string to) override;
  Future<Status> Link(Ctx ctx, std::string existing,
                      std::string link) override;

  std::uint64_t calls() const { return calls_; }
  // Simulated time at which the latest Create or Open call was made.
  SimTime last_open_start() const { return last_open_start_; }

 private:
  struct OpenEntry {
    SimTime start = 0;
    bool writing = false;
  };

  // Returns a future fulfilled with `inner`'s value once `on_done` has seen
  // it. Costs one extra coroutine hop per wrapped call.
  template <typename T, typename F>
  Future<T> Observe(Future<T> inner, F on_done);

  // Records a metadata-call sample and counts a failure.
  void Finish(SimTime start, const Status& status, const char* op,
              const std::string& path);

  memfs::sim::Simulation& sim_;
  memfs::fs::Vfs& inner_;
  SimOutcome& out_;
  std::uint64_t calls_ = 0;
  SimTime last_open_start_ = 0;
  std::unordered_map<Handle, OpenEntry> open_;
};

}  // namespace perfbench
