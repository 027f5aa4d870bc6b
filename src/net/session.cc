#include "src/net/session.h"

#include <cstring>
#include <utility>

namespace fastcoreset {
namespace net {

namespace {

/// Strips the optional '\r' of CRLF framing from line-oriented clients.
void StripCarriageReturn(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace

void Session::IngestBytes(const char* data, size_t size) {
  size_t pos = 0;
  while (pos < size) {
    const void* newline = std::memchr(data + pos, '\n', size - pos);
    const size_t line_end =
        newline == nullptr
            ? size
            : static_cast<size_t>(static_cast<const char*>(newline) - data);
    if (discarding_) {
      // Inside an oversized line: drop everything up to its newline. The
      // error marker already sits in ready_ at the line's arrival slot.
      if (newline == nullptr) return;
      discarding_ = false;
      pos = line_end + 1;
      continue;
    }
    partial_.append(data + pos, line_end - pos);
    if (newline == nullptr) {
      // No newline yet — enforce the limit as bytes stream in so one
      // endless line cannot grow the buffer unbounded.
      if (partial_.size() > limits_.max_line_bytes) {
        partial_.clear();
        partial_.shrink_to_fit();
        discarding_ = true;
        ready_.push_back(PendingLine{std::string(), /*oversized=*/true});
      }
      return;
    }
    PendingLine pending;
    pending.line = std::move(partial_);
    partial_.clear();
    StripCarriageReturn(pending.line);
    if (pending.line.size() > limits_.max_line_bytes) {
      pending.line.clear();
      pending.oversized = true;
    }
    ready_.push_back(std::move(pending));
    pos = line_end + 1;
  }
}

void Session::NoteReadClosed() {
  read_closed_ = true;
  // A trailing line without a newline before EOF still counts as a
  // request, mirroring the stdio transport's getline loop. (If we were
  // mid-discard, its oversized marker is already queued.)
  if (!discarding_ && !partial_.empty()) {
    PendingLine pending;
    pending.line = std::move(partial_);
    StripCarriageReturn(pending.line);
    if (pending.line.size() > limits_.max_line_bytes) {
      pending.line.clear();
      pending.oversized = true;
    }
    ready_.push_back(std::move(pending));
  }
  partial_.clear();
  discarding_ = false;
}

bool Session::WantsRead() const {
  if (read_closed_) return false;
  if (open_requests() >= limits_.max_inflight) return false;
  // Released responses no longer count as open, so a client that never
  // reads its socket would otherwise grow output_ without bound.
  if (OutputSize() >= limits_.max_line_bytes) return false;
  // A framed line waiting for dispatch means the server is intentionally
  // holding back (queue backpressure); don't pile more input on top.
  return ready_.empty();
}

std::optional<Session::Request> Session::NextRequest() {
  if (ready_.empty()) return std::nullopt;
  if (open_requests() >= limits_.max_inflight) return std::nullopt;
  Request request;
  request.sequence = next_sequence_++;
  request.line = std::move(ready_.front().line);
  request.oversized = ready_.front().oversized;
  ready_.pop_front();
  return request;
}

void Session::CompleteRequest(uint64_t sequence, std::string response_line) {
  response_line.push_back('\n');
  parked_.emplace(sequence, std::move(response_line));
  // Release every response now contiguous with the already flushed
  // prefix; later sequences stay parked.
  auto it = parked_.begin();
  while (it != parked_.end() && it->first == next_release_) {
    output_ += it->second;
    it = parked_.erase(it);
    ++next_release_;
  }
}

void Session::ConsumeOutput(size_t bytes) {
  write_offset_ += bytes;
  if (write_offset_ >= output_.size()) {
    output_.clear();
    write_offset_ = 0;
  }
}

}  // namespace net
}  // namespace fastcoreset
