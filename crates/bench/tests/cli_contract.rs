//! The CLI contract, checked over the command table itself: under both
//! binary names every subcommand rejects an unknown flag with exit 2 and
//! a usage text that names every flag it does accept, and `help` lists
//! every subcommand.

use std::process::{Command, Output};

use bench::cli::COMMANDS;

const BINARIES: [&str; 2] = [env!("CARGO_BIN_EXE_bench"), env!("CARGO_BIN_EXE_figures")];

fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stderr, .. } = Command::new(binary).args(args).output().expect("spawn");
    (status.code(), String::from_utf8_lossy(&stderr).into_owned())
}

#[test]
fn every_subcommand_rejects_unknown_flags_and_prints_its_flags() {
    for binary in BINARIES {
        for cmd in COMMANDS {
            for name in cmd.names {
                let (code, stderr) = run(binary, &[name, "--definitely-not-a-flag"]);
                assert_eq!(code, Some(2), "{binary} {name}: {stderr}");
                assert!(
                    stderr.contains("--definitely-not-a-flag"),
                    "{binary} {name} does not say what it rejected: {stderr}"
                );
                for spec in cmd.flags {
                    assert!(
                        stderr.contains(spec.name),
                        "{binary} {name}: usage omits {}: {stderr}",
                        spec.name
                    );
                }
            }
        }
    }
}

#[test]
fn help_lists_every_subcommand() {
    for binary in BINARIES {
        let (code, stderr) = run(binary, &["help"]);
        assert_eq!(code, Some(0), "{stderr}");
        let words: Vec<&str> = stderr
            .split(|c: char| !(c.is_alphanumeric() || c == '-'))
            .collect();
        let figures: Vec<String> = (1..=27).map(|n| format!("fig{n}")).collect();
        let table = COMMANDS.iter().flat_map(|c| c.names).copied();
        for name in table.chain(figures.iter().map(String::as_str)) {
            assert!(words.contains(&name), "help omits {name}: {stderr}");
        }
        let (code, _) = run(binary, &["no-such-subcommand"]);
        assert_eq!(code, Some(2));
    }
}
