/**
 * @file
 * Minimal JSON document model + recursive-descent parser: objects,
 * arrays, strings (the escapes our writers emit), numbers, booleans,
 * null. Unknown keys parse generically, so schemas can grow fields
 * without breaking old consumers. Also the one string escaper every
 * JSON writer in the tree uses.
 */

#ifndef MTRAP_COMMON_JSON_HH
#define MTRAP_COMMON_JSON_HH

#include <map>
#include <string>
#include <vector>

namespace mtrap
{

/** One parsed JSON value (a tree; the document root owns everything). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *field(const std::string &key) const
    {
        if (kind != Kind::Object)
            return nullptr;
        const auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }
};

/**
 * Parse `text` (an entire document) into `out`. Returns false and sets
 * `err` on malformed input; trailing non-whitespace is an error.
 */
bool parseJson(const std::string &text, JsonValue &out, std::string &err);

/** `v.field(key)` as a number, or `fallback` when absent/mistyped. */
double jsonNumberField(const JsonValue &v, const std::string &key,
                       double fallback);

/** Escape `s` for inclusion in a JSON string literal: quote, backslash
 *  and every control character (U+0000-U+001F) are escaped. */
std::string jsonEscape(const std::string &s);

} // namespace mtrap

#endif // MTRAP_COMMON_JSON_HH
