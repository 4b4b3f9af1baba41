/**
 * @file
 * Config serialization implementation.
 */

#include "arch/config_io.hh"

#include <ostream>
#include <sstream>

#include "common/field.hh"

namespace ascend {
namespace arch {

namespace {

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    const auto end = s.find_last_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    return s.substr(begin, end - begin + 1);
}

} // anonymous namespace

void
writeConfig(const CoreConfig &config, std::ostream &os)
{
    os << "# ascend-sim core configuration\n";
    forEachField(
        [&os](const char *key, const auto &v) {
            os << key << " = " << fieldText(v) << "\n";
        },
        config);
}

std::string
configToString(const CoreConfig &config)
{
    std::ostringstream os;
    writeConfig(config, os);
    return os.str();
}

CoreConfig
readConfig(std::istream &is, const CoreConfig &base)
{
    CoreConfig config = base;
    std::string line;
    unsigned line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::string body = trim(line);
        if (body.empty())
            continue;
        const auto eq = body.find('=');
        if (eq == std::string::npos)
            throwError(ErrorCode::ConfigParse,
                       "config line %u: expected 'key = value', got "
                       "'%s'", line_no, body.c_str());
        setFieldText(config, trim(body.substr(0, eq)),
                     trim(body.substr(eq + 1)), "config", line_no);
    }
    config.validate();
    return config;
}

CoreConfig
configFromString(const std::string &text, const CoreConfig &base)
{
    std::istringstream is(text);
    return readConfig(is, base);
}

} // namespace arch
} // namespace ascend
