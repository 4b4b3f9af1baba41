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

void
writeConfig(const CoreConfig &config, std::ostream &os)
{
    os << "# ascend-sim core configuration\n";
    writeFields(os, config);
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
    readFields(is, config, "config");
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
