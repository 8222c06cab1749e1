// Minimal leveled diagnostic logging. Off by default (benchmarks must be
// quiet); SetLogLevel turns it on. Not the database audit log — that
// lives in tp/audit.h.
#pragma once

#include <cstdarg>
#include <string_view>

namespace ods {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

void SetLogLevel(LogLevel level) noexcept;
[[nodiscard]] LogLevel GetLogLevel() noexcept;

// printf-style; `tag` identifies the subsystem ("pmm", "adp", "net", ...).
void LogMessage(LogLevel level, std::string_view tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace ods

#define ODS_LOG(level, tag, ...)                              \
  do {                                                        \
    if (static_cast<int>(level) >=                            \
        static_cast<int>(::ods::GetLogLevel())) {             \
      ::ods::LogMessage(level, tag, __VA_ARGS__);             \
    }                                                         \
  } while (false)

#define ODS_DLOG(tag, ...) ODS_LOG(::ods::LogLevel::kDebug, tag, __VA_ARGS__)
#define ODS_ILOG(tag, ...) ODS_LOG(::ods::LogLevel::kInfo, tag, __VA_ARGS__)
#define ODS_WLOG(tag, ...) ODS_LOG(::ods::LogLevel::kWarn, tag, __VA_ARGS__)
#define ODS_ELOG(tag, ...) ODS_LOG(::ods::LogLevel::kError, tag, __VA_ARGS__)
