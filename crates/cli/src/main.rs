//! Binary entry point for `scd` (see [`scd_cli`] for the library surface).

use std::process::ExitCode;

fn main() -> ExitCode {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let args = match scd_cli::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            if e == scd_cli::ArgError::MissingCommand {
                scd_cli::commands::help(&mut std::io::stderr());
            }
            return ExitCode::FAILURE;
        }
    };
    match scd_cli::commands::run(&args, &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
