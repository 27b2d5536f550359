// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The `hyperdom_cli` command-line tool, as a library so tests can drive it
// without spawning processes. The commands, their flags, the criterion
// names and the exit codes are listed once, in kUsage (tools/cli.cc), which
// `hyperdom_cli help` prints.

#ifndef HYPERDOM_TOOLS_CLI_H_
#define HYPERDOM_TOOLS_CLI_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "dominance/criterion.h"

namespace hyperdom {
namespace cli {

/// A parsed command line: the command word plus --key=value flags.
struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> flags;

  /// Flag lookup with default.
  std::string GetFlag(const std::string& key,
                      const std::string& fallback = "") const;
};

/// Parses "command --k=v ..." argument vectors (argv[0] excluded).
/// Fails on missing command, non-flag tokens or malformed flags.
Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args);

/// Parses a sphere literal "x,y,...;r" (at least one coordinate; r >= 0).
Result<Hypersphere> ParseSphere(const std::string& spec);

/// Parses a criterion name (listed in kUsage). "all" is not accepted
/// here; commands that support it handle it themselves.
Result<CriterionKind> ParseCriterion(const std::string& name);

/// Runs the tool. Writes human output to `out`, errors to `err`; returns
/// the process exit code (0 on success).
int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace cli
}  // namespace hyperdom

#endif  // HYPERDOM_TOOLS_CLI_H_
