#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/check.hpp"

namespace dasm {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "true";
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::vector<std::string> Cli::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

// Parses all of `value` with `parse` (std::stoll or std::stod); a valid
// prefix followed by anything else is rejected like an unparsable token.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& value,
                 const char* expected, Parse parse) {
  std::size_t used = 0;
  decltype(parse(value, &used)) out{};
  try {
    out = parse(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  DASM_CHECK_MSG(used == value.size() && used > 0,
                 "flag --" << name << " expects " << expected << ", got '"
                           << value << "'");
  return out;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole(name, it->second, "an integer",
                     [](const std::string& s, std::size_t* used) {
                       return static_cast<std::int64_t>(std::stoll(s, used));
                     });
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole(name, it->second, "a number",
                     [](const std::string& s, std::size_t* used) {
                       return std::stod(s, used);
                     });
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  DASM_CHECK_MSG(false, "flag --" << name << " expects a boolean, got '" << v
                                  << "'");
  return fallback;  // unreachable
}

}  // namespace dasm
