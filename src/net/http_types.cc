#include "net/http_types.h"

#include <utility>

namespace focus::net {
namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

HttpResponse HttpResponse::Later(std::shared_ptr<PendingResponse> pending) {
  HttpResponse response;
  response.pending = std::move(pending);
  return response;
}

PendingResponse::~PendingResponse() {
  // No other owner is left, so nothing races this read.
  if (sink_ == nullptr) return;
  HttpResponse response;
  response.status = 500;
  response.body = "{\"error\":\"the handler dropped its reply\"}\n";
  sink_(std::move(response));
}

void PendingResponse::Send(HttpResponse response) {
  std::function<void(HttpResponse)> sink;
  {
    common::MutexLock lock(&mutex_);
    if (sink_ == nullptr) {
      early_ = std::move(response);
      return;
    }
    sink.swap(sink_);
  }
  sink(std::move(response));
}

std::optional<HttpResponse> PendingResponse::OnSend(
    std::function<void(HttpResponse)> sink) {
  common::MutexLock lock(&mutex_);
  if (!early_.has_value()) sink_ = std::move(sink);
  return std::exchange(early_, std::nullopt);
}

const std::string* HttpRequest::FindHeader(std::string_view lower_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

std::string_view StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeResponseHeader(const HttpResponse& response,
                                    bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += StatusText(response.status);
  out += "\r\n";
  if (!response.content_type.empty()) {
    out += "Content-Type: " + response.content_type + "\r\n";
  }
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = SerializeResponseHeader(response, keep_alive);
  out += response.body;
  return out;
}

std::string PercentDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out += ' ';
    } else if (text[i] == '%' && i + 2 < text.size() &&
               HexDigit(text[i + 1]) >= 0 && HexDigit(text[i + 2]) >= 0) {
      out += static_cast<char>(HexDigit(text[i + 1]) * 16 +
                               HexDigit(text[i + 2]));
      i += 2;
    } else {
      out += text[i];
    }
  }
  return out;
}

std::map<std::string, std::string> ParseQueryString(std::string_view text) {
  std::map<std::string, std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('&', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view pair = text.substr(start, end - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out[PercentDecode(pair)] = "";
      } else {
        out[PercentDecode(pair.substr(0, eq))] =
            PercentDecode(pair.substr(eq + 1));
      }
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return out;
}

}  // namespace focus::net
