#include "probe_vfs.h"

#include <limits>
#include <utility>

namespace perfbench {

namespace {

using memfs::Result;
using memfs::sim::Promise;

// A failed request counts as missing every latency limit.
constexpr SimTime kFailedSample = std::numeric_limits<SimTime>::max();

template <typename T, typename F>
memfs::sim::Task Relay(memfs::sim::Future<T> inner, Promise<T> done,
                       F on_done) {
  T result = co_await inner;
  on_done(result);
  done.Set(std::move(result));
}

template <typename T>
memfs::Status StatusOf(const Result<T>& result) {
  return result.ok() ? memfs::Status() : result.status();
}

}  // namespace

template <typename T, typename F>
ProbeVfs::Future<T> ProbeVfs::Observe(Future<T> inner, F on_done) {
  Promise<T> done(sim_);
  Future<T> out = done.GetFuture();
  Relay(std::move(inner), std::move(done), std::move(on_done));
  return out;
}

void ProbeVfs::Finish(SimTime start, const Status& status, const char* op,
                      const std::string& path) {
  if (status.ok()) {
    out_.meta.Add(sim_.now() - start);
    return;
  }
  out_.meta.Add(kFailedSample);
  out_.Fail(std::string(op) + " " + path + ": " + status.ToString());
}

ProbeVfs::Future<memfs::Result<ProbeVfs::Handle>> ProbeVfs::Create(
    Ctx ctx, std::string path) {
  ++calls_;
  const SimTime start = sim_.now();
  last_open_start_ = start;
  return Observe(inner_.Create(ctx, path),
                 [this, start, path](const Result<Handle>& r) {
                   Finish(start, StatusOf(r), "create", path);
                   if (r.ok()) open_[r.value()] = {start, true};
                 });
}

ProbeVfs::Future<memfs::Result<ProbeVfs::Handle>> ProbeVfs::Open(
    Ctx ctx, std::string path) {
  ++calls_;
  const SimTime start = sim_.now();
  last_open_start_ = start;
  return Observe(inner_.Open(ctx, path),
                 [this, start, path](const Result<Handle>& r) {
                   Finish(start, StatusOf(r), "open", path);
                   if (r.ok()) open_[r.value()] = {start, false};
                 });
}

ProbeVfs::Future<memfs::Status> ProbeVfs::Write(Ctx ctx, Handle handle,
                                                memfs::Bytes data) {
  ++calls_;
  return inner_.Write(ctx, handle, std::move(data));
}

ProbeVfs::Future<memfs::Result<memfs::Bytes>> ProbeVfs::Read(
    Ctx ctx, Handle handle, std::uint64_t offset, std::uint64_t length) {
  ++calls_;
  return inner_.Read(ctx, handle, offset, length);
}

ProbeVfs::Future<memfs::Status> ProbeVfs::Flush(Ctx ctx, Handle handle) {
  ++calls_;
  return inner_.Flush(ctx, handle);
}

ProbeVfs::Future<memfs::Status> ProbeVfs::Close(Ctx ctx, Handle handle) {
  ++calls_;
  OpenEntry entry;
  bool tracked = false;
  if (const auto it = open_.find(handle); it != open_.end()) {
    entry = it->second;
    tracked = true;
    open_.erase(it);
  }
  return Observe(inner_.Close(ctx, handle),
                 [this, entry, tracked](const Status& s) {
                   if (!s.ok()) out_.Fail("close: " + s.ToString());
                   if (!tracked) return;
                   Samples& samples = entry.writing ? out_.write : out_.read;
                   samples.Add(s.ok() ? sim_.now() - entry.start
                                      : kFailedSample);
                 });
}

ProbeVfs::Future<memfs::Status> ProbeVfs::Mkdir(Ctx ctx, std::string path) {
  ++calls_;
  const SimTime start = sim_.now();
  return Observe(inner_.Mkdir(ctx, path),
                 [this, start, path](const Status& s) {
                   Finish(start, s, "mkdir", path);
                 });
}

ProbeVfs::Future<memfs::Result<std::vector<memfs::fs::FileInfo>>>
ProbeVfs::ReadDir(Ctx ctx, std::string path) {
  ++calls_;
  const SimTime start = sim_.now();
  return Observe(
      inner_.ReadDir(ctx, path),
      [this, start, path](const Result<std::vector<memfs::fs::FileInfo>>& r) {
        Finish(start, StatusOf(r), "readdir", path);
      });
}

ProbeVfs::Future<memfs::Result<memfs::fs::DirPage>> ProbeVfs::ReadDirPage(
    Ctx ctx, std::string path, memfs::fs::DirCursor cursor,
    std::uint32_t limit) {
  ++calls_;
  const SimTime start = sim_.now();
  return Observe(inner_.ReadDirPage(ctx, path, cursor, limit),
                 [this, start, path](const Result<memfs::fs::DirPage>& r) {
                   Finish(start, StatusOf(r), "readdir_page", path);
                 });
}

ProbeVfs::Future<memfs::Result<memfs::fs::FileInfo>> ProbeVfs::Stat(
    Ctx ctx, std::string path) {
  ++calls_;
  const SimTime start = sim_.now();
  return Observe(inner_.Stat(ctx, path),
                 [this, start, path](const Result<memfs::fs::FileInfo>& r) {
                   Finish(start, StatusOf(r), "stat", path);
                 });
}

ProbeVfs::Future<memfs::Status> ProbeVfs::Unlink(Ctx ctx, std::string path) {
  ++calls_;
  const SimTime start = sim_.now();
  return Observe(inner_.Unlink(ctx, path),
                 [this, start, path](const Status& s) {
                   Finish(start, s, "unlink", path);
                 });
}

ProbeVfs::Future<memfs::Status> ProbeVfs::Rmdir(Ctx ctx, std::string path) {
  ++calls_;
  const SimTime start = sim_.now();
  return Observe(inner_.Rmdir(ctx, path),
                 [this, start, path](const Status& s) {
                   Finish(start, s, "rmdir", path);
                 });
}

ProbeVfs::Future<memfs::Status> ProbeVfs::Rename(Ctx ctx, std::string from,
                                                 std::string to) {
  ++calls_;
  const SimTime start = sim_.now();
  return Observe(inner_.Rename(ctx, from, to),
                 [this, start, from](const Status& s) {
                   Finish(start, s, "rename", from);
                 });
}

ProbeVfs::Future<memfs::Status> ProbeVfs::Link(Ctx ctx, std::string existing,
                                               std::string link) {
  ++calls_;
  const SimTime start = sim_.now();
  return Observe(inner_.Link(ctx, existing, link),
                 [this, start, link](const Status& s) {
                   Finish(start, s, "link", link);
                 });
}

}  // namespace perfbench
