//===- mdl/Lexer.h - Machine description language tokens -------*- C++ -*-===//
///
/// \file
/// Tokenizer for the textual machine description language (MDL). The
/// format lets machine descriptions live outside the compiler binary in a
/// form close to the hardware structure, which the reducer then compiles
/// into an efficient internal description (the paper's intended workflow).
///
/// Example:
/// \code
///   # the paper's Figure 1 machine
///   machine fig1 {
///     resources r0, r1, r2, r3, r4;
///     operation A { r0 at 0; r1 at 1; r2 at 2; }
///     operation B {
///       r1 at 0; r2 at 1; r3 at 2 .. 5; r4 at 6 .. 7;
///     }
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef RMD_MDL_LEXER_H
#define RMD_MDL_LEXER_H

#include "support/Diagnostics.h"

#include <string>
#include <string_view>

namespace rmd {

/// The largest integer literal the lexer accepts; a larger one is a
/// diagnosed Error token. Integers only denote cycle numbers and latencies
/// (MDL) and dependence delays and distances (loop graphs), so this one
/// bound covers all of them. It keeps every such value a small int and a
/// reservation-table range small enough to expand; sums and products that
/// grow with the graph (II * Distance, the RecMII search bound) are formed
/// in 64 bits by the schedulers.
inline constexpr long MaxIntegerLiteral = 4095;

/// Token kinds of the MDL.
enum class TokenKind {
  Identifier, ///< names; also carries keywords (resolved by the parser)
  Integer,
  LBrace,
  RBrace,
  Comma,
  Semicolon,
  Colon,
  Arrow, ///< "->", used by the loop-graph format
  DotDot,
  EndOfFile,
  Error,
};

/// One token with its source range start.
struct Token {
  TokenKind Kind = TokenKind::Error;
  std::string Text;
  long Value = 0; ///< Integer tokens only.
  SourceLocation Loc;

  bool is(TokenKind K) const { return Kind == K; }
  bool isKeyword(std::string_view KW) const {
    return Kind == TokenKind::Identifier && Text == KW;
  }
};

/// A one-token-lookahead lexer over an in-memory buffer. Reports malformed
/// input through the DiagnosticEngine and produces an Error token.
class Lexer {
public:
  Lexer(std::string_view Input, DiagnosticEngine &Diags);

  /// Returns the current token without consuming it.
  const Token &peek() const { return Current; }

  /// Consumes and returns the current token.
  Token take();

  SourceLocation location() const { return Current.Loc; }

private:
  void advance();
  char cur() const { return Pos < Input.size() ? Input[Pos] : '\0'; }
  void bump();

  std::string_view Input;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Column = 1;
  Token Current;
};

} // namespace rmd

#endif // RMD_MDL_LEXER_H
