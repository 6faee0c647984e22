/**
 * @file
 * Shared subcommand flag parsing for the `lll` CLI.
 *
 * Before this header every subcommand hand-rolled its own flag loop,
 * and the edges drifted: some rejected a repeated `--json`, some kept
 * the first, some the last; unknown flags exited through three
 * different messages.  ArgParser centralizes the contract once:
 *
 *   - flags are extracted destructively in any order, leaving
 *     positional operands (workload names, optimization tokens) behind
 *     for the subcommand to interpret;
 *   - a valued flag without its value is "FLAG needs an argument";
 *   - a flag given twice is "FLAG given more than once" (never a
 *     silent first/last-wins);
 *   - finish() rejects anything left over that the subcommand did not
 *     claim: "unknown flag '-x'" / "unexpected argument 'x'".
 *
 * All failures are InvalidArgument, which util::exitCodeFor maps to
 * the CLI's usage exit code (2) — so `--jobs`, `--cache-dir`,
 * `--json`, `--cores` behave identically across every subcommand.
 *
 * Flag errors are sticky: an accessor that meets one returns its
 * fallback and the parser keeps the *first* error, so a subcommand
 * reads every flag straight into a local and checks status() once,
 * after the last accessor.  Registration order is therefore also the
 * precedence of errors.
 *
 * The parser is also the single source of `--help` truth: the
 * constructor strips `--help` / `-h`, every accessor registers its
 * flag (name, value shape, one-line help), and helpText() renders the
 * one usage format every subcommand shares.  In help mode accessors
 * return their fallbacks without validating anything — the command
 * checks helpRequested() once its flags are registered, prints, and
 * exits 0 — so `lll <cmd> --help` never fails on the arguments around
 * it.
 */

#ifndef LLL_UTIL_ARGPARSE_HH
#define LLL_UTIL_ARGPARSE_HH

#include <string>
#include <vector>

#include "util/status.hh"

namespace lll::util
{

/** One flag as a subcommand registered it, for the help renderer. */
struct FlagInfo
{
    std::string flag;
    const char *metavar;    //!< nullptr for bare (boolean) flags
    const char *help;       //!< optional one-liner (may be nullptr)
    bool repeatable = false;
};

class ArgParser
{
  public:
    /** Parse over @p args.  `--help` / `-h` anywhere in the list is
     *  stripped and latched. */
    explicit ArgParser(std::vector<std::string> args)
        : args_(std::move(args))
    {
        stripHelp();
    }

    /**
     * Extract `FLAG VALUE`; empty string when the flag is absent.
     * Errors on a missing value or a repeated flag.
     */
    [[nodiscard]] std::string stringFlag(const std::string &flag,
                                         const char *help = nullptr);

    /**
     * Extract every `FLAG VALUE` occurrence, in argument order
     * (repeatable flags: "--axis a=1,2 --axis b=3,4").
     */
    [[nodiscard]] std::vector<std::string>
    stringList(const std::string &flag, const char *help = nullptr);

    /**
     * Extract `FLAG N` as a strictly positive `int`; @p fallback when
     * absent ("--jobs", "--cores", "--iterations"...).
     */
    [[nodiscard]] int intFlag(const std::string &flag, int fallback,
                              const char *help = nullptr);

    /**
     * Extract `FLAG N` as an unsigned 64-bit value; @p fallback when
     * absent ("--seed").  A sign or an out-of-range value is an error.
     */
    [[nodiscard]] uint64_t uint64Flag(const std::string &flag,
                                      uint64_t fallback,
                                      const char *help = nullptr);

    /**
     * Extract `FLAG X` as a finite non-negative double; @p fallback
     * when absent ("--tolerance", "--measure-ms").
     */
    [[nodiscard]] double doubleFlag(const std::string &flag,
                                    double fallback,
                                    const char *help = nullptr);

    /** Extract a bare `FLAG`; false when absent, error on repeats. */
    [[nodiscard]] bool boolFlag(const std::string &flag,
                                const char *help = nullptr);

    /** The first flag error any accessor met; ok when there was none. */
    const util::Status &status() const { return error_; }

    /** Positional operands left after flag extraction. */
    const std::vector<std::string> &rest() const { return args_; }

    /**
     * Reject anything still unconsumed: "unknown flag '-x'" for
     * dash-prefixed leftovers, "unexpected argument 'x'" otherwise.
     * Call after all flags *and* positionals have been claimed.
     * Always ok in help mode.
     */
    [[nodiscard]] util::Status finish() const;

    /** Drop the first @p n positional operands (claimed by caller). */
    void consumePositional(size_t n);

    /** `--help` / `-h` was present.  Check once every flag accessor
     *  has run (registration is what fills the help text). */
    bool helpRequested() const { return helpRequested_; }

    /**
     * The one shared help format: "usage: lll <usage_tail>" plus one
     * line per registered flag.  @p summary is the subcommand's
     * one-line description (omitted when empty).
     */
    std::string helpText(const std::string &usage_tail,
                         const std::string &summary = "") const;

  private:
    size_t findOnce(const std::string &flag);
    std::string extractValue(const std::string &flag);
    void fail(util::Status error);
    void stripHelp();
    void record(const std::string &flag, const char *metavar,
                const char *help, bool repeatable);

    std::vector<std::string> args_;
    std::vector<FlagInfo> flags_;
    util::Status error_;
    bool helpRequested_ = false;
};

} // namespace lll::util

#endif // LLL_UTIL_ARGPARSE_HH
