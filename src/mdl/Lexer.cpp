//===- mdl/Lexer.cpp ------------------------------------------------------===//

#include "mdl/Lexer.h"

#include <cctype>

using namespace rmd;

Lexer::Lexer(std::string_view TheInput, DiagnosticEngine &TheDiags)
    : Input(TheInput), Diags(TheDiags) {
  advance();
}

Token Lexer::take() {
  Token T = Current;
  advance();
  return T;
}

void Lexer::bump() {
  if (cur() == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  ++Pos;
}

static bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}

static bool isIdentBody(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
         C == '.' || C == '-' || C == '@' || C == '$';
}

void Lexer::advance() {
  // Skip whitespace and comments ('#' or '//' to end of line).
  for (;;) {
    while (std::isspace(static_cast<unsigned char>(cur())))
      bump();
    if (cur() == '#' ||
        (cur() == '/' && Pos + 1 < Input.size() && Input[Pos + 1] == '/')) {
      while (cur() != '\n' && cur() != '\0')
        bump();
      continue;
    }
    break;
  }

  Current = Token();
  Current.Loc = SourceLocation{Line, Column};

  char C = cur();
  if (C == '\0') {
    Current.Kind = TokenKind::EndOfFile;
    return;
  }

  switch (C) {
  case '{':
    Current.Kind = TokenKind::LBrace;
    bump();
    return;
  case '}':
    Current.Kind = TokenKind::RBrace;
    bump();
    return;
  case ',':
    Current.Kind = TokenKind::Comma;
    bump();
    return;
  case ';':
    Current.Kind = TokenKind::Semicolon;
    bump();
    return;
  case ':':
    Current.Kind = TokenKind::Colon;
    bump();
    return;
  default:
    break;
  }

  if (C == '-') {
    // Either "->" or the start of a (negative-looking) identifier; only
    // the arrow is valid at token start.
    bump();
    if (cur() == '>') {
      bump();
      Current.Kind = TokenKind::Arrow;
      return;
    }
    Diags.error(Current.Loc, "expected '->'");
    Current.Kind = TokenKind::Error;
    return;
  }

  if (C == '.') {
    bump();
    if (cur() == '.') {
      bump();
      Current.Kind = TokenKind::DotDot;
      return;
    }
    Diags.error(Current.Loc, "expected '..'");
    Current.Kind = TokenKind::Error;
    return;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    long Value = 0;
    std::string Text;
    while (std::isdigit(static_cast<unsigned char>(cur()))) {
      // Stop accumulating once past the limit, so no digit run overflows.
      if (Value <= MaxIntegerLiteral)
        Value = Value * 10 + (cur() - '0');
      Text += cur();
      bump();
    }
    if (Value > MaxIntegerLiteral) {
      Diags.error(Current.Loc, "integer literal out of range (the limit is " +
                                   std::to_string(MaxIntegerLiteral) + ")");
      Current.Kind = TokenKind::Error;
      return;
    }
    Current.Kind = TokenKind::Integer;
    Current.Value = Value;
    Current.Text = std::move(Text);
    return;
  }

  if (isIdentStart(C)) {
    std::string Text;
    while (isIdentBody(cur())) {
      Text += cur();
      bump();
    }
    Current.Kind = TokenKind::Identifier;
    Current.Text = std::move(Text);
    return;
  }

  Diags.error(Current.Loc,
              std::string("unexpected character '") + C + "'");
  Current.Kind = TokenKind::Error;
  bump();
}
