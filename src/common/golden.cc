/**
 * @file
 * Golden-file comparison implementation.
 */

#include "common/golden.hh"

#include <fstream>
#include <sstream>
#include <vector>

namespace ascend {

namespace {

std::vector<std::string>
splitNormalizedLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string line;
    std::istringstream is(text);
    while (std::getline(is, line)) {
        const auto end = line.find_last_not_of(" \t\r");
        line.resize(end == std::string::npos ? 0 : end + 1);
        lines.push_back(line);
    }
    // Drop trailing blank lines so a missing or extra final newline
    // cannot distinguish otherwise identical outputs.
    while (!lines.empty() && lines.back().empty())
        lines.pop_back();
    return lines;
}

} // anonymous namespace

std::string
normalizeGolden(const std::string &text)
{
    const std::vector<std::string> lines = splitNormalizedLines(text);
    std::string out;
    for (const std::string &l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

std::string
diffGolden(const std::string &expected, const std::string &actual)
{
    const std::vector<std::string> want = splitNormalizedLines(expected);
    const std::vector<std::string> got = splitNormalizedLines(actual);
    std::ostringstream os;
    const std::size_t n = std::max(want.size(), got.size());
    unsigned shown = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool has_want = i < want.size();
        const bool has_got = i < got.size();
        if (has_want && has_got && want[i] == got[i])
            continue;
        if (shown++ >= 20) {
            os << "  ... (more differences suppressed)\n";
            break;
        }
        os << "  line " << (i + 1) << ":\n";
        if (has_want)
            os << "    expected: " << want[i] << "\n";
        else
            os << "    expected: <end of file>\n";
        if (has_got)
            os << "    actual:   " << got[i] << "\n";
        else
            os << "    actual:   <end of file>\n";
    }
    return os.str();
}

bool
writeFileText(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    os << text;
    return bool(os);
}

} // namespace ascend
