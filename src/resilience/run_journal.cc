/**
 * @file
 * The run journal: event log, halt hook and the framed checkpoint.
 */

#include "resilience/run_journal.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace ascend {
namespace resilience {

std::string
formatSeconds(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9e", v);
    return buf;
}

RunJournal::RunJournal(const RunControl &control,
                       const JournalFormat &format)
    : control_(control), format_(format)
{
}

std::string
RunJournal::path() const
{
    return control_.checkpointDir + "/" + format_.name + ".ckpt";
}

FrameStatus
RunJournal::load(std::string run_id,
                 const std::function<bool(ByteReader &)> &decode)
{
    runId_ = std::move(run_id);
    std::string body;
    const FrameStatus status = readFramed(path(), format_.magic,
                                          format_.version, runId_, body);
    if (status != FrameStatus::Ok)
        return status;
    ByteReader r{body};
    std::string log;
    if (!decode(r) || !r.readBytes(log, body.size()) || !r.atEnd())
        return FrameStatus::BadBody;
    log_ = std::move(log);
    lines_ = std::uint64_t(std::count(log_.begin(), log_.end(), '\n'));
    return FrameStatus::Ok;
}

bool
RunJournal::save(std::string fields) const
{
    writeBytes(fields, log_);
    return writeFramed(path(), format_.magic, format_.version, runId_,
                       fields);
}

void
RunJournal::remove() const
{
    std::error_code ec;
    std::filesystem::remove(path(), ec);
}

std::string
RunJournal::prefix(double sim_time_sec) const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[e%05llu] t=%s ",
                  static_cast<unsigned long long>(lines_),
                  formatSeconds(sim_time_sec).c_str());
    return buf;
}

void
RunJournal::append(const std::string &line)
{
    log_ += line;
    log_ += '\n';
    ++lines_;
    ++emitted_;
    if (control_.onEvent)
        control_.onEvent(line);
    if (control_.haltAfterEvents && emitted_ >= control_.haltAfterEvents)
        halted_ = true;
}

} // namespace resilience
} // namespace ascend
