//! `hybrid-cdn` — command-line front end for the reproduction.
//!
//! `hybrid-cdn help` prints the overview ([`commands::USAGE`]);
//! `hybrid-cdn COMMAND --help` lists the flags COMMAND accepts, generated
//! from its table in [`COMMANDS`]. Any other flag is an error.

mod commands;
mod report;

use cdn_cli::args::{usage, ArgError, Args, Table};

type Run = fn(&Args) -> Result<(), String>;

/// Every command: its name, its flag table and what runs it.
const COMMANDS: &[(&str, Table, Run)] = &[
    ("compare", commands::COMPARE, commands::compare),
    ("plan", commands::PLAN, commands::plan),
    ("topology", commands::TOPOLOGY, commands::topology),
    ("workload", commands::WORKLOAD, commands::workload),
    ("ingest", commands::INGEST, commands::ingest),
    ("report", report::FLAGS, report::report),
];

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    }
    let command = raw.remove(0);
    let result = match COMMANDS.iter().find(|(name, ..)| *name == command) {
        Some((name, flags, run)) => match Args::parse(raw, flags) {
            Ok(a) => run(&a),
            Err(ArgError::Help) => {
                print!("{}", usage(&format!("hybrid-cdn {name}"), flags));
                Ok(())
            }
            Err(ArgError::Bad(msg)) => Err(msg),
        },
        None if ["help", "--help", "-h"].contains(&command.as_str()) => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        None => Err(format!("unknown command '{command}'\n{}", commands::USAGE)),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;
    use crate::commands::USAGE;
    use cdn_cli::args::declared;
    use std::collections::BTreeSet;

    #[test]
    fn usage_mentions_every_command() {
        for (cmd, ..) in COMMANDS {
            assert!(USAGE.contains(cmd), "{cmd} missing from USAGE");
        }
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        let accepted: BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|(_, table, _)| table.iter().flat_map(|g| g.iter().map(|f| declared(f).0)))
            .collect();
        let is_name = |c: char| c.is_ascii_lowercase() || c == '-';
        let documented: BTreeSet<&str> = USAGE
            .split("--")
            .skip(1)
            .map(|rest| &rest[..rest.find(|c| !is_name(c)).unwrap_or(rest.len())])
            .filter(|name| !name.is_empty() && *name != "help")
            .collect();
        assert_eq!(accepted, documented);
    }
}
