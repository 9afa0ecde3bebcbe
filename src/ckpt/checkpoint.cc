#include "ckpt/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "ckpt/crc32c.h"
#include "ckpt/serial.h"

namespace tristream {
namespace ckpt {
namespace {

constexpr char kMagic[8] = {'T', 'R', 'I', 'C', 'K', 'P', 'T', '\0'};

// Process-wide persist fault hook (testing only). Copied out under the
// mutex before each step so a hook swap never races an in-flight save.
std::mutex& PersistHookMutex() {
  static std::mutex mu;
  return mu;
}

PersistFaultHook& PersistHookSlot() {
  static PersistFaultHook hook;
  return hook;
}

Status ConsultPersistHook(PersistStep step, const std::string& path) {
  PersistFaultHook hook;
  {
    std::lock_guard<std::mutex> lock(PersistHookMutex());
    hook = PersistHookSlot();
  }
  if (!hook) return Status::Ok();
  return hook(step, path);
}

constexpr std::uint32_t kSectionMeta = 1;
constexpr std::uint32_t kSectionState = 2;

const char* SectionName(std::uint32_t id) {
  switch (id) {
    case kSectionMeta:
      return "meta";
    case kSectionState:
      return "state";
  }
  return "unknown";
}

void AppendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(v & 0xff));
    v >>= 8;
  }
}

void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v & 0xff));
    v >>= 8;
  }
}

void AppendSection(std::string* out, std::uint32_t id,
                   std::string_view payload) {
  AppendU32(out, id);
  AppendU64(out, payload.size());
  out->append(payload.data(), payload.size());
  AppendU32(out, Crc32c(payload));
}

/// Parsed but not yet interpreted container: payload views per section id.
struct ParsedContainer {
  std::string_view meta;
  std::string_view state;
};

Result<ParsedContainer> ParseContainer(std::string_view blob) {
  ByteSource source(blob);
  std::string_view magic;
  if (!source.ReadView(sizeof(kMagic), &magic).ok()) {
    return Status::CorruptData(
        "checkpoint header truncated: " + std::to_string(blob.size()) +
        " bytes is smaller than the TRICKPT magic");
  }
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::CorruptData(
        "not a TRICKPT checkpoint (bad magic in header)");
  }
  std::uint32_t version = 0, section_count = 0;
  if (!source.ReadU32(&version).ok() || !source.ReadU32(&section_count).ok()) {
    return Status::CorruptData("checkpoint header truncated after magic");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }

  ParsedContainer parsed;
  bool have_meta = false, have_state = false;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    std::uint32_t id = 0, stored_crc = 0;
    std::string_view payload;
    if (!source.ReadU32(&id).ok()) {
      return Status::CorruptData("checkpoint truncated in section table (" +
                                 std::to_string(i) + " of " +
                                 std::to_string(section_count) +
                                 " sections present)");
    }
    if (!source.ReadBlobView(&payload).ok()) {
      return Status::CorruptData(std::string("checkpoint section '") +
                                 SectionName(id) + "' truncated");
    }
    if (!source.ReadU32(&stored_crc).ok()) {
      return Status::CorruptData(std::string("checkpoint section '") +
                                 SectionName(id) +
                                 "' truncated before its checksum");
    }
    if (Crc32c(payload) != stored_crc) {
      return Status::CorruptData(std::string("checkpoint section '") +
                                 SectionName(id) +
                                 "' failed its CRC32C check");
    }
    switch (id) {
      case kSectionMeta:
        if (have_meta) {
          return Status::CorruptData("duplicate 'meta' section in checkpoint");
        }
        parsed.meta = payload;
        have_meta = true;
        break;
      case kSectionState:
        if (have_state) {
          return Status::CorruptData(
              "duplicate 'state' section in checkpoint");
        }
        parsed.state = payload;
        have_state = true;
        break;
      default:
        return Status::CorruptData("unknown checkpoint section id " +
                                   std::to_string(id));
    }
  }
  if (!source.exhausted()) {
    return Status::CorruptData(
        std::to_string(source.remaining()) +
        " trailing bytes after the last checkpoint section");
  }
  if (!have_meta) {
    return Status::CorruptData("checkpoint is missing its 'meta' section");
  }
  if (!have_state) {
    return Status::CorruptData("checkpoint is missing its 'state' section");
  }
  return parsed;
}

Result<CheckpointInfo> ParseMeta(std::string_view payload) {
  ByteSource meta(payload);
  CheckpointInfo info;
  std::string_view name;
  Status st = meta.ReadBlobView(&name);
  if (st.ok()) st = meta.ReadU64(&info.fingerprint);
  if (st.ok()) st = meta.ReadU64(&info.edges_processed);
  if (st.ok()) st = meta.ReadU64(&info.batch_size);
  if (!st.ok() || !meta.exhausted()) {
    return Status::CorruptData(
        "checkpoint section 'meta' has an inconsistent layout (its CRC is "
        "intact; this is a writer bug or format mismatch)");
  }
  info.estimator = std::string(name);
  return info;
}

Result<std::string> ReadCheckpointFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::Unavailable("no checkpoint at '" + path + "'");
    }
    return Status::IoError("open('" + path +
                           "') failed: " + std::strerror(errno));
  }
  std::string data;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string error = std::strerror(errno);
      ::close(fd);
      return Status::IoError("read('" + path + "') failed: " + error);
    }
    if (n == 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return data;
}

}  // namespace

std::string PreviousGenerationPath(const std::string& path) {
  return path + ".prev";
}

void SetPersistFaultHookForTesting(PersistFaultHook hook) {
  std::lock_guard<std::mutex> lock(PersistHookMutex());
  PersistHookSlot() = std::move(hook);
}

Result<std::string> EncodeCheckpoint(engine::StreamingEstimator& estimator,
                                     std::uint64_t batch_size) {
  ByteSink state;
  TRISTREAM_RETURN_IF_ERROR(estimator.SaveState(state));

  ByteSink meta;
  meta.WriteBlob(estimator.name());
  meta.WriteU64(estimator.config_fingerprint());
  meta.WriteU64(estimator.edges_processed());
  meta.WriteU64(batch_size);

  std::string blob;
  blob.reserve(sizeof(kMagic) + 8 + 2 * 16 + meta.size() + state.size());
  blob.append(kMagic, sizeof(kMagic));
  AppendU32(&blob, kFormatVersion);
  AppendU32(&blob, 2);  // section count
  AppendSection(&blob, kSectionMeta, meta.data());
  AppendSection(&blob, kSectionState, state.data());
  return blob;
}

Result<CheckpointInfo> InspectCheckpoint(std::string_view blob) {
  TRISTREAM_ASSIGN_OR_RETURN(ParsedContainer parsed, ParseContainer(blob));
  return ParseMeta(parsed.meta);
}

Result<CheckpointInfo> DecodeCheckpoint(
    std::string_view blob, engine::StreamingEstimator& estimator) {
  TRISTREAM_ASSIGN_OR_RETURN(ParsedContainer parsed, ParseContainer(blob));
  TRISTREAM_ASSIGN_OR_RETURN(CheckpointInfo info, ParseMeta(parsed.meta));
  if (info.estimator != estimator.name()) {
    return Status::InvalidArgument(
        "checkpoint was saved by estimator '" + info.estimator +
        "', cannot restore into '" + estimator.name() + "'");
  }
  if (!estimator.checkpointable()) {
    return Status::FailedPrecondition(std::string(estimator.name()) +
                                      " is not checkpointable");
  }
  if (info.fingerprint != estimator.config_fingerprint()) {
    return Status::InvalidArgument(
        "checkpoint config fingerprint mismatch: snapshot was taken with a "
        "different (r, seed, batch, window) configuration of '" +
        info.estimator + "' -- resume with the exact flags of the original "
        "run");
  }
  ByteSource state(parsed.state);
  TRISTREAM_RETURN_IF_ERROR(estimator.RestoreState(state));
  if (!state.exhausted()) {
    return Status::CorruptData(
        "checkpoint section 'state' has " + std::to_string(state.remaining()) +
        " trailing bytes after restore");
  }
  if (estimator.edges_processed() != info.edges_processed) {
    return Status::CorruptData(
        "checkpoint section 'state' restored to stream position " +
        std::to_string(estimator.edges_processed()) +
        " but 'meta' records " + std::to_string(info.edges_processed));
  }
  return info;
}

Status WriteFileAtomic(const std::string& path, std::string_view data,
                       bool sync) {
  const std::string tmp_path = path + ".tmp";
  TRISTREAM_RETURN_IF_ERROR(ConsultPersistHook(PersistStep::kOpenTmp, path));
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("open('" + tmp_path +
                           "') failed: " + std::strerror(errno));
  }
  // An injected write fault simulates a crash mid-write: half the blob
  // lands in the temp file and nothing is cleaned up (a real crash would
  // not unlink either). Loaders never read `.tmp`, so the torn file is
  // inert until the next save's O_TRUNC.
  if (Status faulted = ConsultPersistHook(PersistStep::kWrite, path);
      !faulted.ok()) {
    const std::size_t half = data.size() / 2;
    std::size_t torn = 0;
    while (torn < half) {
      const ssize_t n = ::write(fd, data.data() + torn, half - torn);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      torn += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return faulted;
  }
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string error = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::IoError("write('" + tmp_path + "') failed: " + error);
    }
    written += static_cast<std::size_t>(n);
  }
  // The temp file must be durable BEFORE any rename: if we crash between
  // the renames below, `path.prev` (the old snapshot) is still complete,
  // and if we crash before them, `path` itself is untouched. sync == false
  // trades the power-loss half of that guarantee for speed (the serve
  // plane amortizes real fsyncs across its checkpoint cadence).
  if (Status faulted = ConsultPersistHook(PersistStep::kFsync, path);
      !faulted.ok()) {
    ::close(fd);
    return faulted;
  }
  if (sync && ::fsync(fd) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::IoError("fsync('" + tmp_path + "') failed: " + error);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::IoError("close('" + tmp_path +
                           "') failed: " + std::strerror(errno));
  }
  // A fault here is a crash after durability but before any rename:
  // primary untouched, complete temp file left behind.
  TRISTREAM_RETURN_IF_ERROR(
      ConsultPersistHook(PersistStep::kRenamePrev, path));
  // Keep the previous generation around; a reader that finds `path` torn
  // away mid-rotation can still load `path.prev`.
  if (::rename(path.c_str(), PreviousGenerationPath(path).c_str()) != 0 &&
      errno != ENOENT) {
    return Status::IoError("rename('" + path + "' -> '" +
                           PreviousGenerationPath(path) +
                           "') failed: " + std::strerror(errno));
  }
  // A fault here is the torn rename: rotation done, primary gone, only
  // `path.prev` loadable -- the exact window LoadCheckpoint's fallback
  // exists for.
  TRISTREAM_RETURN_IF_ERROR(
      ConsultPersistHook(PersistStep::kRenamePrimary, path));
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename('" + tmp_path + "' -> '" + path +
                           "') failed: " + std::strerror(errno));
  }
  // Make the renames themselves durable. Best-effort: some filesystems
  // reject fsync on directories; the data itself is already synced.
  if (sync) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash == 0 ? 1 : slash);
    const int dir_fd =
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
      (void)::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
  return Status::Ok();
}

Status SaveCheckpoint(const std::string& path,
                      engine::StreamingEstimator& estimator,
                      std::uint64_t batch_size, bool sync) {
  TRISTREAM_ASSIGN_OR_RETURN(std::string blob,
                             EncodeCheckpoint(estimator, batch_size));
  return WriteFileAtomic(path, blob, sync);
}

Result<CheckpointInfo> LoadCheckpoint(const std::string& path,
                                      engine::StreamingEstimator& estimator) {
  Status error = Status::Ok();
  const std::string candidates[2] = {path, PreviousGenerationPath(path)};
  for (const std::string& candidate : candidates) {
    Status attempt;
    auto data = ReadCheckpointFile(candidate);
    if (data.ok()) {
      auto decoded = DecodeCheckpoint(*data, estimator);
      if (decoded.ok()) return decoded;
      attempt = decoded.status();
      // A failed decode may have partially restored; scrub before the
      // next candidate (or before the caller's fresh start).
      estimator.Reset();
    } else {
      attempt = data.status();
    }
    // Keep the most informative failure: a corrupt primary beats a
    // missing fallback.
    if (error.ok() || (error.code() == StatusCode::kUnavailable &&
                       attempt.code() != StatusCode::kUnavailable)) {
      error = attempt;
    }
  }
  return error;
}

Status SkipToCheckpoint(stream::EdgeStream& source,
                        const CheckpointInfo& info) {
  if (info.edges_processed == 0) return source.status();
  if (info.batch_size == 0) {
    return Status::InvalidArgument(
        "checkpoint records no batch size; cannot align the resume seek");
  }
  // Event-model seek: turnstile streams count delete events as delivered
  // positions too, so the replay cursor matches the estimator's
  // events-processed count exactly.
  stream::EventScratch scratch;
  std::uint64_t delivered = 0;
  while (delivered < info.edges_processed) {
    const auto view = source.NextEventBatchView(
        static_cast<std::size_t>(info.batch_size), &scratch);
    if (view.empty()) {
      TRISTREAM_RETURN_IF_ERROR(source.status());
      return Status::InvalidArgument(
          "stream ended after " + std::to_string(delivered) +
          " edges, before the checkpoint position " +
          std::to_string(info.edges_processed) +
          " -- is this the same input the checkpoint was taken from?");
    }
    delivered += view.size();
  }
  if (delivered != info.edges_processed) {
    return Status::InvalidArgument(
        "checkpoint position " + std::to_string(info.edges_processed) +
        " is not on a batch boundary of this source at w=" +
        std::to_string(info.batch_size) +
        " (seek overshot to " + std::to_string(delivered) +
        ") -- resume with the same input and batch size as the original run");
  }
  return source.status();
}

}  // namespace ckpt
}  // namespace tristream
