//! The argument model: what a command declares ([`Flag`], [`Command`]),
//! what one invocation of it was given ([`Args`]), and the one error type
//! every command propagates with `?` ([`CliError`]).

use lsbench::core::results::StoreError;
use lsbench::core::BenchError;
use std::fmt::Display;
use std::str::FromStr;

/// A command's failure: the process exit code and the one message `main`
/// prints for it (nothing, when the command already reported in full).
#[derive(Debug)]
pub struct CliError {
    pub code: u8,
    pub message: String,
}

impl CliError {
    /// The invocation itself is wrong: exit code 2.
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    /// The invocation was fine but the work failed: exit code 1.
    pub fn failure(message: impl Into<String>) -> Self {
        CliError {
            code: 1,
            message: message.into(),
        }
    }
}

/// An unprefixed [`BenchError`] reaches the CLI from resolving something
/// the user named — a SUT, a scenario, a fault plan, an SLA, a drift axis —
/// so it is a usage error; failures of the work itself go through
/// [`Context::context`].
impl From<BenchError> for CliError {
    fn from(e: BenchError) -> Self {
        CliError::usage(e.to_string())
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        CliError::failure(e.to_string())
    }
}

/// `result.context("run failed")?`: a failure (exit 1) reported as
/// `run failed: <error>`.
pub trait Context<T> {
    fn context(self, what: &str) -> Result<T, CliError>;
}

impl<T, E: Display> Context<T> for Result<T, E> {
    fn context(self, what: &str) -> Result<T, CliError> {
        self.map_err(|e| CliError::failure(format!("{what}: {e}")))
    }
}

/// One `--flag` a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    pub name: &'static str,
    pub takes_value: bool,
    pub repeatable: bool,
}

impl Flag {
    /// A flag that is present or absent.
    pub const fn switch(name: &'static str) -> Self {
        Flag {
            name,
            takes_value: false,
            repeatable: false,
        }
    }

    /// A flag followed by its value.
    pub const fn value(name: &'static str) -> Self {
        Flag {
            name,
            takes_value: true,
            repeatable: false,
        }
    }

    /// The same flag where a command accepts it more than once.
    pub const fn repeatable(self) -> Self {
        Flag {
            repeatable: true,
            ..self
        }
    }
}

/// One row of the command table.
pub struct Command {
    /// The words that select it (`["archive", "run"]`).
    pub path: &'static [&'static str],
    /// The flags it accepts, as groups (shared groups are declared once).
    pub flags: &'static [&'static [Flag]],
    /// Fewest and most positional arguments it takes.
    pub positionals: (usize, usize),
    /// Its block of the usage text.
    pub usage: &'static str,
    pub run: fn(&Args) -> Result<(), CliError>,
}

impl Command {
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags
            .iter()
            .copied()
            .flatten()
            .find(|f| f.name == name)
    }

    /// A usage error (exit 2) that states the problem, if there is more to
    /// say than "not like this", and shows this command's usage block.
    pub fn misuse(&self, problem: &str) -> CliError {
        let gap = if problem.is_empty() { "" } else { "\n\n" };
        CliError::usage(format!("{problem}{gap}USAGE:\n{}", self.usage))
    }
}

/// One invocation's arguments, parsed once against the matched command's
/// declaration: anything the command does not declare, a missing value, a
/// repeated single-use flag or a surplus positional is refused here, so a
/// command body only ever sees arguments it asked for.
pub struct Args {
    flags: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Args {
    pub fn parse(command: &'static Command, argv: &[String]) -> Result<Self, CliError> {
        let mut args = Args {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.positionals.push(arg.clone());
                continue;
            }
            let flag = command
                .flag(arg)
                .ok_or_else(|| command.misuse(&format!("unknown flag '{arg}'")))?;
            if !flag.repeatable && args.has(flag) {
                return Err(command.misuse(&format!("{arg} given more than once")));
            }
            let value = match flag.takes_value.then(|| argv.next()) {
                None => String::new(),
                Some(Some(value)) if !value.starts_with("--") => value.clone(),
                Some(_) => return Err(command.misuse(&format!("{arg} needs a value"))),
            };
            args.flags.push((flag.name, value));
        }
        let (fewest, most) = command.positionals;
        if let Some(surplus) = args.positionals.get(most) {
            return Err(command.misuse(&format!("unexpected argument '{surplus}'")));
        }
        if args.positionals.len() < fewest {
            return Err(command.misuse(""));
        }
        Ok(args)
    }

    pub fn has(&self, flag: &Flag) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag.name)
    }

    /// Every value given for a repeatable flag, in order.
    pub fn all(&self, flag: &Flag) -> impl Iterator<Item = &str> {
        let wanted = flag.name;
        self.flags
            .iter()
            .filter(move |(name, _)| *name == wanted)
            .map(|(_, value)| value.as_str())
    }

    pub fn get(&self, flag: &Flag) -> Option<&str> {
        self.all(flag).next()
    }

    /// The value of a flag the command cannot run without; `what` finishes
    /// the sentence that starts with the flag's name.
    pub fn require(&self, flag: &Flag, what: &str) -> Result<&str, CliError> {
        self.get(flag)
            .ok_or_else(|| CliError::usage(format!("{} {what}", flag.name)))
    }

    /// The value of a flag that names one of a fixed set of things, through
    /// that thing's own `parse`.
    pub fn choice<T>(
        &self,
        flag: &Flag,
        parse: impl Fn(&str) -> Option<T>,
        noun: &str,
        expected: &str,
    ) -> Result<Option<T>, CliError> {
        let parsed = |v| {
            parse(v).ok_or_else(|| {
                CliError::usage(format!("unknown {noun} '{v}' (expected {expected})"))
            })
        };
        self.get(flag).map(parsed).transpose()
    }

    /// The parsed value of a flag that must be `what` (`"a number"`), if
    /// given; a value that does not parse or that `accept` turns down is a
    /// usage error naming the flag, never a silent default.
    pub fn parsed<T: FromStr>(
        &self,
        flag: &Flag,
        what: &str,
        accept: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, CliError> {
        let parsed = |v: &str| {
            v.parse()
                .ok()
                .filter(&accept)
                .ok_or_else(|| CliError::usage(format!("{} must be {what}, got '{v}'", flag.name)))
        };
        self.get(flag).map(parsed).transpose()
    }

    pub fn num<T: FromStr>(&self, flag: &Flag, default: T) -> Result<T, CliError> {
        Ok(self.parsed(flag, "a number", |_| true)?.unwrap_or(default))
    }

    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}
