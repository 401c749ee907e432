//! `mei` — the user-facing command line for the multi-embedding
//! interaction library.
//!
//! ```text
//! mei generate --out DIR [--kind synthwn|synthfb|synthwnrr|synthfb237|recsys|random]
//!              [--scale tiny|small|full] [--seed N]
//! mei stats    --dataset DIR [--order hrt|htr]
//! mei train    --dataset DIR --out model.bin [--model NAME] [--dim N]
//!              [--epochs N] [--lr F] [--batch N] [--seed N] [--sampling uniform|bern|kvsall]
//!              [--bt-k K --bt-ce CE --bt-cr CR]  (block-term MEI family, DESIGN.md §17)
//!              [--dropout F] [--input-dropout F] [--batch-norm true]  (kvsall regularizers)
//! mei eval     --dataset DIR --model-file model.bin [--split test|valid]
//!              [--categories true] [--classification true]
//! mei predict  --dataset DIR --model-file model.bin --head NAME --relation NAME [--topk K]
//! mei serve    --dataset DIR --model-file model.bin [--addr HOST:PORT] [--workers N]
//! mei export   --dataset DIR --model-file model.bin --out embeddings.tsv
//! mei models   (list available model presets)
//! ```

mod args;
mod commands;

use std::io::{ErrorKind, Write};

use args::{Args, ArgsError};

fn main() {
    // An unknown subcommand, or a flag the subcommand does not accept, is
    // a usage error like a malformed command line.
    let parsed = Args::parse(std::env::args().skip(1)).and_then(|args| {
        let cmd = commands::subcommand(&args.command)
            .ok_or_else(|| ArgsError::UnknownCommand(args.command.clone()))?;
        args.reject_unknown(cmd.flags)?;
        Ok((cmd, args))
    });
    let (cmd, args) = parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}\n");
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    });
    let mut stdout = std::io::stdout();
    let result = (cmd.run)(&args, &mut stdout).and_then(|()| Ok(stdout.flush()?));
    if let Err(e) = result {
        // A reader that leaves early (`mei stats | head -1`) is not an
        // error: stop writing and exit 0 without a word.
        if e.downcast_ref::<std::io::Error>().is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) {
            return;
        }
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
