//! The command-line grammar, declared once as data.
//!
//! A binary's front door is one [`Cli`] table: its commands, the flags
//! each accepts (metavar, default, help), and the function that runs it.
//! The parser walks that table, `--help` text is generated from it, and a
//! flag the named command does not declare is a usage error — so the
//! table is the only place the grammar is written down. `report` and
//! `tracetool` both parse through here.
//!
//! Values are read typed, by the command that owns them:
//! [`Parsed::get`] / [`Parsed::opt`] parse on demand and return the usage
//! message on a malformed operand, so a command's validation sits at the
//! top of the command and nothing downstream re-checks it.

use std::fmt::Write as _;
use std::str::FromStr;

/// `EX_USAGE`: malformed command line.
pub const EXIT_USAGE: i32 = 64;

/// One option of a command (or of every command, when listed in
/// [`Cli::global`]).
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Long spelling, with its dashes: `--ranks`.
    pub name: &'static str,
    /// One-letter alias with its dash (`-q`), or `""`.
    pub short: &'static str,
    /// Operand placeholder in help (`N`, `FILE`); `""` makes it a switch.
    pub metavar: &'static str,
    /// Value used when the flag is absent, as the user would type it;
    /// `""` = none ([`Parsed::get`] then reports the flag as required).
    pub default: &'static str,
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes a value.
    pub const fn new(
        name: &'static str,
        metavar: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            short: "",
            metavar,
            default,
            help,
        }
    }

    /// An on/off flag.
    pub const fn switch(name: &'static str, short: &'static str, help: &'static str) -> Flag {
        Flag {
            short,
            ..Flag::new(name, "", "", help)
        }
    }

    /// The same flag with a command's own default.
    pub const fn default(self, default: &'static str) -> Flag {
        Flag { default, ..self }
    }
}

/// One command: what it is called, what it takes, what runs it.
pub struct Command {
    pub name: &'static str,
    /// Placeholder for the single positional operand (`FILE`,
    /// `<status|join|decommission>`); `""` = takes none.
    pub operand: &'static str,
    pub summary: &'static str,
    pub flags: &'static [Flag],
    /// Returns the process exit code, or the message of a usage error
    /// (reported with the command's usage text, exit [`EXIT_USAGE`]).
    pub run: fn(&Parsed) -> Result<i32, String>,
}

impl Command {
    pub const fn new(
        name: &'static str,
        operand: &'static str,
        flags: &'static [Flag],
        run: fn(&Parsed) -> Result<i32, String>,
    ) -> Command {
        Command {
            name,
            operand,
            summary: "",
            flags,
            run,
        }
    }

    /// The one-line summary `--help` shows.
    pub const fn about(mut self, summary: &'static str) -> Command {
        self.summary = summary;
        self
    }
}

/// A binary's whole grammar.
pub struct Cli {
    pub prog: &'static str,
    pub commands: &'static [Command],
    /// Flags every command accepts.
    pub global: &'static [Flag],
    /// Command run when none is named; `""` = a command is required.
    pub default_command: &'static str,
    /// Closing section of the help text (exit codes).
    pub epilog: &'static str,
}

/// A command line that parsed: the command, its operand, and the flags
/// given, all already checked against the command's declaration.
pub struct Parsed {
    pub command: &'static Command,
    cli: &'static Cli,
    operand: Option<String>,
    /// `(flag, raw value)` in argv order, each declared by `command`;
    /// switches carry `""`.
    given: Vec<(&'static Flag, String)>,
}

/// A command line that runs no command: `--help` (code 0, text for
/// stdout) or a usage error (code [`EXIT_USAGE`], text for stderr).
#[derive(Debug)]
pub struct Stop {
    pub code: i32,
    pub text: String,
}

impl Stop {
    /// Print the text where it belongs; the exit code.
    pub fn report(&self) -> i32 {
        if self.code == 0 {
            print!("{}", self.text);
        } else {
            eprint!("{}", self.text);
        }
        self.code
    }
}

/// Exit code of a command whose reader went away: what the shell reports
/// for a process killed by `SIGPIPE`.
pub const EXIT_PIPE: i32 = 141;

/// `report all | head -1`: the reader closes the pipe and the next
/// `println!` panics ("failed printing to stdout: Broken pipe"), because
/// the Rust runtime ignores `SIGPIPE`. Restoring the signal's default
/// action is not an option — it is process-wide and would let a client
/// that hangs up mid-response kill `report serve` — so the panic hook
/// ends the process the way the signal would have: no message, exit
/// [`EXIT_PIPE`]. Every other panic goes to the previous hook untouched.
fn exit_quietly_when_stdout_closes() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let closed = info.payload().downcast_ref::<String>().is_some_and(|m| {
            m.starts_with("failed printing to stdout") && m.contains("Broken pipe")
        });
        if closed {
            std::process::exit(EXIT_PIPE);
        }
        previous(info);
    }));
}

impl Cli {
    /// `command`'s declaration of the flag spelled `name` — where a
    /// per-command default lives — else the global one.
    fn declared(&self, command: &Command, name: &str) -> Option<&'static Flag> {
        let mut flags = command.flags.iter().chain(self.global);
        flags.find(|f| f.name == name)
    }

    /// The usage error `message`, under `command`'s usage text when the
    /// line got as far as naming one.
    fn reject(&self, command: Option<&Command>, message: String) -> Stop {
        Stop {
            code: EXIT_USAGE,
            text: format!("error: {message}\n{}", self.usage(command)),
        }
    }

    /// Parse `argv` (program name already stripped). Flags may precede
    /// the command; a repeated flag keeps its last value.
    pub fn parse(&'static self, argv: &[String]) -> Result<Parsed, Stop> {
        let mut help = false;
        let mut words: Vec<&str> = Vec::new();
        let mut given: Vec<(&'static Flag, String)> = Vec::new();
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                help = true;
            } else if !arg.starts_with('-') {
                words.push(arg);
            } else {
                // Arity is resolved before the command is known, so a
                // spelling has one arity across the whole binary.
                let every = self.commands.iter().flat_map(|c| c.flags);
                let flag = (self.global.iter().chain(every))
                    .find(|f| f.name == arg || f.short == arg)
                    .ok_or_else(|| self.reject(None, format!("unknown argument {arg}")))?;
                let value = match flag.metavar {
                    "" => String::new(),
                    _ => (args.next().cloned()).ok_or_else(|| {
                        self.reject(None, format!("{} requires a value", flag.name))
                    })?,
                };
                given.push((flag, value));
            }
        }

        let mut words = words.into_iter();
        let help_for = |command| Stop {
            code: 0,
            text: self.usage(command),
        };
        let name = match words.next() {
            Some("help") => return Err(help_for(None)),
            Some(name) => name,
            None if help => return Err(help_for(None)),
            None if self.default_command.is_empty() => {
                return Err(self.reject(None, "a command is required".to_string()))
            }
            None => self.default_command,
        };
        let command = (self.commands.iter().find(|c| c.name == name))
            .ok_or_else(|| self.reject(None, format!("unknown command: {name}")))?;
        if help {
            return Err(help_for(Some(command)));
        }
        let operand = match command.operand {
            "" => None,
            _ => words.next().map(str::to_string),
        };
        if let Some(word) = words.next() {
            return Err(self.reject(Some(command), format!("unexpected argument {word}")));
        }
        let declares = |f: &Flag| self.declared(command, f.name).is_some();
        if let Some((flag, _)) = given.iter().find(|(f, _)| !declares(f)) {
            let message = format!("{name} does not take {}", flag.name);
            return Err(self.reject(Some(command), message));
        }
        Ok(Parsed {
            command,
            cli: self,
            operand,
            given,
        })
    }

    /// The binary's `main` prologue: parse, or answer `--help` (exit 0)
    /// or a bad line (exit [`EXIT_USAGE`]) and leave.
    pub fn parse_or_exit(&'static self, argv: &[String]) -> Parsed {
        exit_quietly_when_stdout_closes();
        self.parse(argv)
            .unwrap_or_else(|stop| std::process::exit(stop.report()))
    }

    /// Run the parsed command; a usage error it returns is reported like
    /// a parse error.
    pub fn dispatch(&self, parsed: &Parsed) -> i32 {
        (parsed.command.run)(parsed)
            .unwrap_or_else(|message| self.reject(Some(parsed.command), message).report())
    }

    /// `prog --help` (every command with its summary) or, for one
    /// command, `prog <command> --help` (its flags); then the global
    /// flags and the epilog.
    pub fn usage(&self, command: Option<&Command>) -> String {
        let mut out = String::new();
        let prog = self.prog;
        if let Some(c) = command {
            let head = [c.name, " ", c.operand].concat();
            let _ = writeln!(out, "usage: {prog} {} [options]", head.trim_end());
            let _ = writeln!(out, "  {}", c.summary);
            flag_section(&mut out, "options", c.flags);
        } else {
            let _ = writeln!(out, "usage: {prog} <command> [options]");
            let _ = writeln!(
                out,
                "       {prog} <command> --help    one command's options"
            );
            let _ = writeln!(out, "\ncommands:");
            for c in self.commands {
                let head = [c.name, " ", c.operand].concat();
                let head = head.trim_end();
                if head.len() <= 18 {
                    let _ = writeln!(out, "  {head:<18} {}", c.summary);
                } else {
                    let _ = writeln!(out, "  {head}\n  {:<18} {}", "", c.summary);
                }
            }
            if !self.default_command.is_empty() {
                let _ = writeln!(out, "(no command = {})", self.default_command);
            }
        }
        flag_section(&mut out, "options of every command", self.global);
        out.push_str(self.epilog);
        out
    }
}

fn flag_section(out: &mut String, title: &str, flags: &[Flag]) {
    if flags.is_empty() {
        return;
    }
    let _ = writeln!(out, "\n{title}:");
    for f in flags {
        let comma = if f.short.is_empty() { "" } else { ", " };
        let head = [f.name, comma, f.short, " ", f.metavar].concat();
        let _ = write!(out, "  {:<20} {}", head.trim_end(), f.help);
        if !f.default.is_empty() {
            let _ = write!(out, " (default {})", f.default);
        }
        out.push('\n');
    }
}

impl Parsed {
    /// The value given for `flag` as typed, else the default the command
    /// declares for it. A command reading a flag it does not declare is a
    /// bug in its table entry, not user error.
    pub fn text(&self, flag: &Flag) -> Option<&str> {
        let given = self.given.iter().rev().find(|(f, _)| f.name == flag.name);
        if let Some((_, value)) = given {
            return Some(value);
        }
        let declared = (self.cli.declared(self.command, flag.name)).unwrap_or_else(|| {
            let command = self.command.name;
            panic!(
                "command {command} reads {} but does not declare it",
                flag.name
            )
        });
        Some(declared.default).filter(|d| !d.is_empty())
    }

    /// Whether a switch was given.
    pub fn switch(&self, flag: &Flag) -> bool {
        self.given.iter().any(|(f, _)| f.name == flag.name)
    }

    /// A flag's value (or its default) parsed as `T`; `None` when the
    /// flag is absent and declares no default.
    pub fn opt<T: FromStr>(&self, flag: &Flag) -> Result<Option<T>, String> {
        let parse = |raw: &str| {
            raw.parse()
                .map_err(|_| format!("invalid value for {}: {raw:?}", flag.name))
        };
        self.text(flag).map(parse).transpose()
    }

    /// [`Parsed::opt`] for a flag the command cannot run without.
    pub fn get<T: FromStr>(&self, flag: &Flag) -> Result<T, String> {
        let Flag { name, metavar, .. } = flag;
        self.opt(flag)?
            .ok_or_else(|| format!("{} requires {name} {metavar}", self.command.name))
    }

    /// The positional operand, or the usage error naming what is missing.
    pub fn operand(&self) -> Result<&str, String> {
        self.operand
            .as_deref()
            .ok_or_else(|| format!("{} requires {}", self.command.name, self.command.operand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: Flag = Flag::new("--n", "N", "4", "a count");
    const LOUD: Flag = Flag::switch("--loud", "-l", "a switch");
    const WHERE: Flag = Flag::new("--where", "DIR", "", "no default");
    fn ok(_: &Parsed) -> Result<i32, String> {
        Ok(0)
    }
    static TOY: Cli = Cli {
        prog: "toy",
        commands: &[
            Command::new("count", "", &[N, WHERE], ok).about("counts"),
            Command::new("few", "FILE", &[N.default("2")], ok).about("counts less"),
        ],
        global: &[LOUD],
        default_command: "count",
        epilog: "",
    };

    fn parse(args: &[&str]) -> Result<Parsed, Stop> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        TOY.parse(&argv)
    }

    /// The message of the usage error `args` must be.
    fn rejected(args: &[&str]) -> String {
        let stop = parse(args).err().expect("rejected");
        assert_eq!(stop.code, EXIT_USAGE);
        let message = stop.text.lines().next().unwrap();
        message.strip_prefix("error: ").unwrap().to_string()
    }

    #[test]
    fn defaults_are_per_command_and_last_value_wins() {
        assert_eq!(parse(&[]).unwrap().get::<u32>(&N), Ok(4));
        assert_eq!(parse(&["few"]).unwrap().get::<u32>(&N), Ok(2));
        let p = parse(&["--n", "7", "count", "--n", "9", "-l"]).unwrap();
        assert_eq!(p.get::<u32>(&N), Ok(9));
        assert!(p.switch(&LOUD));
        assert!(!parse(&["count"]).unwrap().switch(&LOUD));
    }

    #[test]
    fn values_are_typed_on_read() {
        let p = parse(&["count", "--n", "-1"]).unwrap();
        assert_eq!(
            p.get::<u32>(&N).unwrap_err(),
            "invalid value for --n: \"-1\""
        );
        assert_eq!(p.opt::<String>(&WHERE), Ok(None));
        assert_eq!(
            p.get::<String>(&WHERE).unwrap_err(),
            "count requires --where DIR"
        );
    }

    #[test]
    fn undeclared_flags_operands_and_commands_are_rejected() {
        assert_eq!(
            rejected(&["few", "--where", "x"]),
            "few does not take --where"
        );
        assert_eq!(rejected(&["count", "--bogus"]), "unknown argument --bogus");
        assert_eq!(rejected(&["count", "--n"]), "--n requires a value");
        assert_eq!(rejected(&["frob"]), "unknown command: frob");
        assert_eq!(rejected(&["count", "stray"]), "unexpected argument stray");
        assert_eq!(rejected(&["few", "a", "b"]), "unexpected argument b");
        assert_eq!(
            parse(&["few"]).unwrap().operand().unwrap_err(),
            "few requires FILE"
        );
        assert_eq!(parse(&["few", "a"]).unwrap().operand(), Ok("a"));
    }

    #[test]
    fn help_is_generated_from_the_table() {
        let help = |args: &[&str]| {
            let stop = parse(args).err().expect("help");
            assert_eq!(stop.code, 0);
            stop.text
        };
        for args in [&["--help"][..], &["help"]] {
            let text = help(args);
            assert!(text.starts_with("usage: toy <command>"), "{text}");
            for c in TOY.commands {
                assert!(text.contains(c.name) && text.contains(c.summary), "{text}");
            }
            assert!(text.contains("--loud, -l"), "{text}");
        }
        let text = help(&["few", "--help"]);
        assert!(text.starts_with("usage: toy few FILE"), "{text}");
        assert!(text.contains("--n N") && text.contains("(default 2)"));
        assert!(!text.contains("--where"), "{text}");
    }
}
